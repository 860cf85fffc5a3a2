package sched

import (
	"math"
	"math/rand"
	"testing"
)

func sample() []DomainTest {
	return []DomainTest{
		{Name: "clka", TimeUS: 900, PowerMW: 300},
		{Name: "clkb", TimeUS: 120, PowerMW: 80},
		{Name: "clkc", TimeUS: 100, PowerMW: 60},
		{Name: "clkd", TimeUS: 140, PowerMW: 90},
		{Name: "clke", TimeUS: 90, PowerMW: 40},
		{Name: "clkf", TimeUS: 110, PowerMW: 70},
	}
}

func TestSerialIsSum(t *testing.T) {
	tests := sample()
	s := Serial(tests)
	want := 0.0
	for _, x := range tests {
		want += x.TimeUS
	}
	if math.Abs(s.MakespanUS-want) > 1e-9 {
		t.Fatalf("serial makespan %v, want %v", s.MakespanUS, want)
	}
	if err := Check(s, tests, 1e18); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyRespectsBudgetAndBeatsSerial(t *testing.T) {
	tests := sample()
	budget := 400.0
	g, err := Greedy(tests, budget)
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(g, tests, budget); err != nil {
		t.Fatal(err)
	}
	if g.MakespanUS >= Serial(tests).MakespanUS {
		t.Fatalf("greedy (%v) not better than serial (%v)", g.MakespanUS, Serial(tests).MakespanUS)
	}
}

func TestOptimalNeverWorseThanGreedy(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for iter := 0; iter < 50; iter++ {
		n := 3 + r.Intn(5)
		tests := make([]DomainTest, n)
		maxP := 0.0
		for i := range tests {
			tests[i] = DomainTest{
				Name:    "d",
				TimeUS:  10 + 500*r.Float64(),
				PowerMW: 10 + 200*r.Float64(),
			}
			maxP = math.Max(maxP, tests[i].PowerMW)
		}
		budget := maxP * (1 + 1.5*r.Float64())
		g, err := Greedy(tests, budget)
		if err != nil {
			t.Fatal(err)
		}
		o, err := Optimal(tests, budget)
		if err != nil {
			t.Fatal(err)
		}
		if err := Check(o, tests, budget); err != nil {
			t.Fatal(err)
		}
		if o.MakespanUS > g.MakespanUS+1e-9 {
			t.Fatalf("optimal (%v) worse than greedy (%v)", o.MakespanUS, g.MakespanUS)
		}
		if o.MakespanUS > Serial(tests).MakespanUS+1e-9 {
			t.Fatal("optimal worse than serial")
		}
	}
}

func TestOptimalKnownCase(t *testing.T) {
	// Two pairs that fit exactly: optimal pairs them, makespan = 100+90.
	tests := []DomainTest{
		{Name: "a", TimeUS: 100, PowerMW: 60},
		{Name: "b", TimeUS: 95, PowerMW: 40},
		{Name: "c", TimeUS: 90, PowerMW: 60},
		{Name: "d", TimeUS: 85, PowerMW: 40},
	}
	o, err := Optimal(tests, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(o.MakespanUS-190) > 1e-9 {
		t.Fatalf("optimal makespan %v, want 190", o.MakespanUS)
	}
	if len(o.Sessions) != 2 {
		t.Fatalf("want 2 sessions, got %d", len(o.Sessions))
	}
}

func TestValidation(t *testing.T) {
	tests := sample()
	if _, err := Greedy(tests, 0); err == nil {
		t.Fatal("zero budget accepted")
	}
	if _, err := Greedy(tests, 100); err == nil {
		t.Fatal("over-budget single domain accepted")
	}
	if _, err := Optimal(tests, 100); err == nil {
		t.Fatal("over-budget single domain accepted by Optimal")
	}
	big := make([]DomainTest, 17)
	for i := range big {
		big[i] = DomainTest{TimeUS: 1, PowerMW: 1}
	}
	if _, err := Optimal(big, 100); err == nil {
		t.Fatal("17 domains accepted by Optimal")
	}
	bad := sample()
	bad[0].TimeUS = -1
	if _, err := Greedy(bad, 500); err == nil {
		t.Fatal("negative time accepted")
	}
}

func TestCheckCatchesCorruption(t *testing.T) {
	tests := sample()
	g, err := Greedy(tests, 400)
	if err != nil {
		t.Fatal(err)
	}
	g.MakespanUS += 5
	if err := Check(g, tests, 400); err == nil {
		t.Fatal("inconsistent makespan accepted")
	}
	g, _ = Greedy(tests, 400)
	g.Sessions[0].Domains = append(g.Sessions[0].Domains, g.Sessions[0].Domains[0])
	if err := Check(g, tests, 400); err == nil {
		t.Fatal("duplicate domain accepted")
	}
	g, _ = Greedy(tests, 400)
	g.Sessions = g.Sessions[:len(g.Sessions)-1]
	if err := Check(g, tests, 400); err == nil {
		t.Fatal("missing domain accepted")
	}
}
