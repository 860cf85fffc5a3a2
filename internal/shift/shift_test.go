package shift

import (
	"testing"

	"scap/internal/atpg"
	"scap/internal/fault"
	"scap/internal/faultsim"
	"scap/internal/logic"
	"scap/internal/netlist"
	"scap/internal/scan"
	"scap/internal/sim"
	"scap/internal/soc"
)

func rig(t *testing.T) (*netlist.Design, *scan.Scan, *faultsim.Sim, *fault.List) {
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
	return d, sc, fs, fault.Universe(d)
}

func TestMeasureKnownVector(t *testing.T) {
	d, sc, _, _ := rig(t)
	// Alternating state: every chain boundary toggles.
	p := atpg.Pattern{V1: make([]logic.V, len(d.Flops))}
	idx := map[netlist.InstID]int{}
	for i, f := range d.Flops {
		idx[f] = i
	}
	wantTr, wantWTC := 0, 0
	for _, c := range sc.Chains {
		for k, f := range c.Flops {
			p.V1[idx[f]] = logic.V(k % 2) // 0,1,0,1...
		}
		L := len(c.Flops)
		for k := 0; k+1 < L; k++ {
			wantTr++
			wantWTC += L - 1 - k
		}
	}
	prof, err := Measure(d, sc, &p)
	if err != nil {
		t.Fatal(err)
	}
	if prof.Transitions != wantTr || prof.WTC != wantWTC {
		t.Fatalf("got %+v, want tr=%d wtc=%d", prof, wantTr, wantWTC)
	}
	if prof.Rate() <= 0.9 {
		t.Fatalf("alternating rate %v, want ~1", prof.Rate())
	}

	// Constant state: zero everything.
	for i := range p.V1 {
		p.V1[i] = logic.One
	}
	prof, err = Measure(d, sc, &p)
	if err != nil {
		t.Fatal(err)
	}
	if prof.Transitions != 0 || prof.WTC != 0 || prof.Rate() != 0 {
		t.Fatalf("constant state profile %+v", prof)
	}
}

func TestXBitsDontCount(t *testing.T) {
	d, sc, _, _ := rig(t)
	p := atpg.Pattern{V1: make([]logic.V, len(d.Flops))}
	for i := range p.V1 {
		p.V1[i] = logic.X
	}
	prof, err := Measure(d, sc, &p)
	if err != nil {
		t.Fatal(err)
	}
	if prof.Transitions != 0 {
		t.Fatal("X bits counted as transitions")
	}
}

// TestAdjacentFillMinimizesShiftPower is the classic fill trade-off: the
// adjacent fill must produce (much) lower shift activity than random fill
// on real ATPG patterns.
func TestAdjacentFillMinimizesShiftPower(t *testing.T) {
	d, sc, fs, _ := rig(t)
	rates := map[atpg.Fill]float64{}
	for _, fill := range []atpg.Fill{atpg.FillRandom, atpg.FillAdjacent, atpg.Fill0} {
		l := fault.Universe(d)
		res, err := atpg.Run(fs, l, sc, atpg.Options{
			Dom: 0, Fill: fill, Seed: 3, MaxPatterns: 40,
		})
		if err != nil {
			t.Fatal(err)
		}
		_, rate, err := MeasureSet(d, sc, res.Patterns)
		if err != nil {
			t.Fatal(err)
		}
		rates[fill] = rate
	}
	t.Logf("shift transition rates: random=%.3f adjacent=%.3f fill0=%.3f",
		rates[atpg.FillRandom], rates[atpg.FillAdjacent], rates[atpg.Fill0])
	if rates[atpg.FillAdjacent] >= rates[atpg.FillRandom]/2 {
		t.Fatalf("adjacent fill (%.3f) not well below random (%.3f)",
			rates[atpg.FillAdjacent], rates[atpg.FillRandom])
	}
	if rates[atpg.Fill0] >= rates[atpg.FillRandom] {
		t.Fatal("fill0 should also beat random on shift activity")
	}
}

func TestMeasureValidation(t *testing.T) {
	d, sc, _, _ := rig(t)
	p := atpg.Pattern{V1: make([]logic.V, 3)}
	if _, err := Measure(d, sc, &p); err == nil {
		t.Fatal("short vector accepted")
	}
	if _, _, err := MeasureSet(d, sc, nil); err == nil {
		t.Fatal("empty set accepted")
	}
}
