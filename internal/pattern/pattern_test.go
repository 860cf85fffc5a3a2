package pattern

import (
	"bytes"
	"strings"
	"testing"

	"scap/internal/atpg"
	"scap/internal/fault"
	"scap/internal/faultsim"
	"scap/internal/netlist"
	"scap/internal/scan"
	"scap/internal/sim"
	"scap/internal/soc"
)

func patternSet(t testing.TB) (*netlist.Design, []atpg.Pattern) {
	t.Helper()
	d, _, err := soc.Generate(soc.DefaultConfig(96))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scan.Insert(d, scan.Config{NumChains: 16})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(d)
	if err != nil {
		t.Fatal(err)
	}
	fs := faultsim.New(s)
	l := fault.Universe(d)
	res, err := atpg.Run(fs, l, sc, atpg.Options{Dom: 0, Fill: atpg.FillRandom, Seed: 1, MaxPatterns: 30})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) == 0 {
		t.Fatal("no patterns")
	}
	return d, res.Patterns
}

func TestRoundTrip(t *testing.T) {
	d, pats := patternSet(t)
	var buf bytes.Buffer
	if err := Write(&buf, d, pats); err != nil {
		t.Fatal(err)
	}
	back, err := Read(bytes.NewReader(buf.Bytes()), d)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(pats) {
		t.Fatalf("read %d patterns, wrote %d", len(back), len(pats))
	}
	for i := range pats {
		if back[i].Target != pats[i].Target || back[i].Step != pats[i].Step {
			t.Fatalf("pattern %d metadata differs", i)
		}
		if len(back[i].Secondaries) != len(pats[i].Secondaries) {
			t.Fatalf("pattern %d secondaries differ", i)
		}
		for j := range pats[i].V1 {
			if back[i].V1[j] != pats[i].V1[j] {
				t.Fatalf("pattern %d V1[%d] differs", i, j)
			}
		}
		for j := range pats[i].PIs {
			if back[i].PIs[j] != pats[i].PIs[j] {
				t.Fatalf("pattern %d PIs[%d] differs", i, j)
			}
		}
	}
}

func TestReadValidatesDesign(t *testing.T) {
	d, pats := patternSet(t)
	var buf bytes.Buffer
	if err := Write(&buf, d, pats); err != nil {
		t.Fatal(err)
	}
	other, _, err := soc.Generate(soc.DefaultConfig(48))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Read(bytes.NewReader(buf.Bytes()), other); err == nil {
		t.Fatal("size-mismatched design accepted")
	}
}

func TestReadErrors(t *testing.T) {
	d, pats := patternSet(t)
	var buf bytes.Buffer
	if err := Write(&buf, d, pats[:1]); err != nil {
		t.Fatal(err)
	}
	good := buf.String()
	cases := map[string]string{
		"bad magic":      strings.Replace(good, "SCAPPAT 1", "NOPE 9", 1),
		"bad flops":      strings.Replace(good, "flops ", "flops x", 1),
		"bad bit":        strings.Replace(good, " v1 0", " v1 Z", 1),
		"truncated":      good[:len(good)/2],
		"bad attribute":  strings.Replace(good, "target=", "target:", 1),
		"negative count": strings.Replace(good, "patterns 1", "patterns -1", 1),
		"huge count":     strings.Replace(good, "patterns 1", "patterns 4000000000000", 1),
	}
	for name, src := range cases {
		if _, err := Read(strings.NewReader(src), d); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// X bits survive the trip.
	withX := strings.Replace(good, " pi 0", " pi X", 1)
	if !strings.Contains(withX, " pi X") {
		t.Skip("pi vector does not start with 0 in this seed")
	}
	back, err := Read(strings.NewReader(withX), d)
	if err != nil {
		t.Fatal(err)
	}
	if back[0].PIs[0].String() != "X" {
		t.Fatal("X bit lost")
	}
}
