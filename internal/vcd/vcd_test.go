package vcd

import (
	"bytes"
	"strings"
	"testing"

	"scap/internal/cell"
	"scap/internal/logic"
	"scap/internal/netlist"
	"scap/internal/sdf"
	"scap/internal/sim"
)

func record(t testing.TB) (*Recorder, int) {
	t.Helper()
	d := netlist.New("v", cell.New180nm())
	d.NumBlocks = 1
	d.Domains = []netlist.DomainInfo{{Name: "clk", FreqMHz: 50, PeriodNs: 20}}
	q1 := d.AddNet("q1")
	q2 := d.AddNet("q2")
	a := d.AddNet("a")
	b := d.AddNet("b")
	d.AddInst("i1", cell.Inv, []netlist.NetID{q1}, a, 0)
	d.AddInst("i2", cell.Inv, []netlist.NetID{a}, b, 0)
	f1 := d.AddInst("f1", cell.DFF, []netlist.NetID{b}, q1, 0)
	f2 := d.AddInst("f2", cell.DFF, []netlist.NetID{b}, q2, 0)
	d.SetDomain(f1, 0, false)
	d.SetDomain(f2, 0, false)
	s, err := sim.New(d)
	if err != nil {
		t.Fatal(err)
	}
	tm := sim.NewTiming(s, sdf.Compute(d), nil)
	rec := NewRecorder(d)
	res, err := tm.LaunchInto(nil, []logic.V{logic.Zero, logic.X}, []logic.V{logic.One, logic.X},
		nil, 20, rec.OnToggle)
	if err != nil {
		t.Fatal(err)
	}
	return rec, res.Toggles
}

func TestRecorderCapturesAllToggles(t *testing.T) {
	rec, toggles := record(t)
	if len(rec.Changes) != toggles {
		t.Fatalf("recorded %d changes, sim reported %d", len(rec.Changes), toggles)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	rec, _ := record(t)
	var buf bytes.Buffer
	if err := rec.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"$timescale 1ps $end", "$var wire 1", "$enddefinitions"} {
		if !strings.Contains(out, want) {
			t.Fatalf("VCD missing %q:\n%s", want, out)
		}
	}
	back, err := Read(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(rec.Changes) {
		t.Fatalf("read %d changes, wrote %d", len(back), len(rec.Changes))
	}
	// Same multiset of (net, rising) with ps-rounded times in order.
	for i := 1; i < len(back); i++ {
		if back[i].TimeNs < back[i-1].TimeNs {
			t.Fatal("changes out of order")
		}
	}
	seen := map[string]int{}
	for _, c := range back {
		seen[c.Net]++
	}
	for _, c := range rec.Changes {
		seen[c.Net]--
	}
	for n, v := range seen {
		if v != 0 {
			t.Fatalf("net %s count off by %d", n, v)
		}
	}
}

func TestReadErrors(t *testing.T) {
	if _, err := Read(strings.NewReader("$enddefinitions $end\n#notanumber\n")); err == nil {
		t.Fatal("bad timestamp accepted")
	}
	if _, err := Read(strings.NewReader("$enddefinitions $end\n#10\n1zz\n")); err == nil {
		t.Fatal("unknown id accepted")
	}
	if _, err := Read(strings.NewReader("$var wire\n")); err == nil {
		t.Fatal("bad $var accepted")
	}
}

func TestID94(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 500; i++ {
		id := id94(i)
		if id == "" || seen[id] {
			t.Fatalf("id94(%d) = %q duplicate or empty", i, id)
		}
		seen[id] = true
	}
}
