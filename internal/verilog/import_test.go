package verilog

import (
	"os"
	"testing"

	"scap/internal/atpg"
	"scap/internal/cell"
	"scap/internal/fault"
	"scap/internal/faultsim"
	"scap/internal/logic"
	"scap/internal/scan"
	"scap/internal/sim"
)

// TestImportedCounterBehaves reads a hand-written external design and
// verifies functional behavior, then runs the complete DFT flow on it:
// scan insertion, chain flush, and transition-fault ATPG.
func TestImportedCounterBehaves(t *testing.T) {
	f, err := os.Open("testdata/counter4.v")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	d, err := Read(f, cell.New180nm())
	if err != nil {
		t.Fatal(err)
	}
	d.NumBlocks = 1
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
	if len(d.Flops) != 4 || d.NumGates() != 6 {
		t.Fatalf("counter has %d flops, %d gates", len(d.Flops), d.NumGates())
	}

	// Functional check: 20 capture cycles count 0..15 and wrap.
	s, err := sim.New(d)
	if err != nil {
		t.Fatal(err)
	}
	// Map design flop order to bit weight via instance names u_q0..u_q3.
	weight := map[string]uint{"u_q0": 0, "u_q1": 1, "u_q2": 2, "u_q3": 3}
	state := make([]logic.V, len(d.Flops))
	for i := range state {
		state[i] = logic.Zero
	}
	value := func(st []logic.V) int {
		v := 0
		for i, fl := range d.Flops {
			if st[i] == logic.One {
				v |= 1 << weight[d.Inst(fl).Name]
			}
		}
		return v
	}
	nets := s.NewNets()
	for cyc := 1; cyc <= 20; cyc++ {
		s.ApplyState(nets, state)
		s.Propagate(nets)
		state = s.CaptureState(nets)
		if got, want := value(state), cyc%16; got != want {
			t.Fatalf("cycle %d: counter at %d, want %d", cyc, got, want)
		}
	}

	// DFT flow: scan insert, flush, transition-fault ATPG.
	sc, err := scan.Insert(d, scan.Config{NumChains: 1})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := sim.New(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.FlushTest(s2, nil); err != nil {
		t.Fatal(err)
	}
	fs := faultsim.New(s2)
	l := fault.Universe(d)
	res, err := atpg.Run(fs, l, sc, atpg.Options{Dom: 0, Fill: atpg.FillRandom, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Counts
	t.Logf("counter4 ATPG: %d faults, %d detected, %d untestable, %d patterns, TC %.1f%%",
		c.Total, c.Detected, c.Untestable, len(res.Patterns), 100*c.TestCoverage())
	if c.TestCoverage() < 0.5 {
		t.Fatalf("coverage %.1f%% too low for the counter", 100*c.TestCoverage())
	}
}
