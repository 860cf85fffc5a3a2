package scan

import (
	"fmt"
	"math/rand"
	"testing"

	"scap/internal/logic"
	"scap/internal/netlist"
	"scap/internal/place"
	"scap/internal/sim"
	"scap/internal/soc"
)

func inserted(t *testing.T, byPlacement bool) (*netlist.Design, *Scan) {
	t.Helper()
	d, _, err := soc.Generate(soc.DefaultConfig(64))
	if err != nil {
		t.Fatal(err)
	}
	if byPlacement {
		if _, err := place.Place(d, 1); err != nil {
			t.Fatal(err)
		}
	}
	cfg := DefaultConfig()
	cfg.OrderByPlacement = byPlacement
	sc, err := Insert(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d, sc
}

// shiftIn performs a functional scan shift of the given per-chain vectors
// (vectors[c][0] ends up in chain c's first cell, i.e. it is shifted in
// last) using the zero-delay simulator, starting from state start
// (d.Flops order; may be nil for all-X). It returns the resulting state.
// Every vector must match its chain length. PIs other than scan pins hold
// the provided values.
func shiftIn(sc *Scan, s *sim.Simulator, start []logic.V, vectors [][]logic.V, pis []logic.V) ([]logic.V, error) {
	d := sc.D
	if len(vectors) != len(sc.Chains) {
		return nil, fmt.Errorf("scan: %d vectors for %d chains", len(vectors), len(sc.Chains))
	}
	for c := range vectors {
		if len(vectors[c]) != len(sc.Chains[c].Flops) {
			return nil, fmt.Errorf("scan: chain %d vector length %d, want %d",
				c, len(vectors[c]), len(sc.Chains[c].Flops))
		}
	}
	state := make([]logic.V, len(d.Flops))
	if start == nil {
		for i := range state {
			state[i] = logic.X
		}
	} else {
		copy(state, start)
	}
	if pis == nil {
		pis = make([]logic.V, len(d.PIs))
		for i := range pis {
			pis[i] = logic.X
		}
	} else {
		cp := make([]logic.V, len(d.PIs))
		copy(cp, pis)
		pis = cp
	}
	pis[d.Nets[sc.SE].PI] = logic.One

	cycles := sc.MaxChainLen()
	nets := s.NewNets()
	for cyc := 0; cyc < cycles; cyc++ {
		// The bit destined for position p must enter at cycle cycles-1-p,
		// so shorter chains see don't-care padding during the early cycles
		// and their real bits during the last len(chain) cycles.
		for c := range sc.Chains {
			vec := vectors[c]
			idx := cycles - 1 - cyc
			bit := logic.X
			if idx < len(vec) {
				bit = vec[idx]
			}
			pis[d.Nets[sc.SIs[c]].PI] = bit
		}
		s.SetPIs(nets, pis)
		s.ApplyState(nets, state)
		s.Propagate(nets)
		state = s.CaptureState(nets)
	}
	return state, nil
}

// stateOf converts per-chain vectors directly into a per-flop state vector
// without simulating the shift (vectors[c][k] lands in chain c cell k).
func stateOf(sc *Scan, vectors [][]logic.V) ([]logic.V, error) {
	if len(vectors) != len(sc.Chains) {
		return nil, fmt.Errorf("scan: %d vectors for %d chains", len(vectors), len(sc.Chains))
	}
	d := sc.D
	state := make([]logic.V, len(d.Flops))
	for i := range state {
		state[i] = logic.X
	}
	flopIdx := make(map[netlist.InstID]int, len(d.Flops))
	for i, f := range d.Flops {
		flopIdx[f] = i
	}
	for c := range sc.Chains {
		if len(vectors[c]) != len(sc.Chains[c].Flops) {
			return nil, fmt.Errorf("scan: chain %d vector length %d, want %d",
				c, len(vectors[c]), len(sc.Chains[c].Flops))
		}
		for k, f := range sc.Chains[c].Flops {
			state[flopIdx[f]] = vectors[c][k]
		}
	}
	return state, nil
}

func TestInsertConvertsAllFlops(t *testing.T) {
	d, sc := inserted(t, true)
	n := 0
	onChain := make(map[netlist.InstID]bool, len(d.Flops))
	for _, c := range sc.Chains {
		n += len(c.Flops)
		for _, f := range c.Flops {
			onChain[f] = true
		}
	}
	if n != len(d.Flops) {
		t.Fatalf("chains carry %d flops, design has %d", n, len(d.Flops))
	}
	for _, f := range d.Flops {
		inst := d.Inst(f)
		if inst.Kind.String() != "SDFF" {
			t.Fatalf("flop %s not converted (%v)", inst.Name, inst.Kind)
		}
		if !onChain[f] {
			t.Fatalf("flop %s not on any chain", inst.Name)
		}
	}
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestChainStructure(t *testing.T) {
	d, sc := inserted(t, true)
	if len(sc.Chains) == 0 || len(sc.SIs) != len(sc.Chains) || len(sc.SOs) != len(sc.Chains) {
		t.Fatalf("chain bookkeeping: %d chains, %d SIs, %d SOs",
			len(sc.Chains), len(sc.SIs), len(sc.SOs))
	}
	// Negative-edge flops live on exactly one dedicated chain.
	negChains := 0
	for _, c := range sc.Chains {
		if c.NegEdge {
			negChains++
			for _, f := range c.Flops {
				if !d.Inst(f).NegEdge {
					t.Fatal("pos-edge flop on the neg-edge chain")
				}
			}
		} else {
			for _, f := range c.Flops {
				if d.Inst(f).NegEdge {
					t.Fatal("neg-edge flop on a regular chain")
				}
				if d.Inst(f).Domain != c.Domain {
					t.Fatalf("chain %s mixes domains", c.Name)
				}
			}
		}
	}
	if negChains != 1 {
		t.Fatalf("%d neg-edge chains, want 1", negChains)
	}
	// Chain SI wiring: cell k's SI pin must be cell k-1's Q (or the SI pin).
	for _, c := range sc.Chains {
		prev := sc.SIs[c.Index]
		for _, f := range c.Flops {
			inst := d.Inst(f)
			if inst.In[1] != prev {
				t.Fatalf("chain %s broken at %s", c.Name, inst.Name)
			}
			if inst.In[2] != sc.SE {
				t.Fatalf("flop %s SE not on global scan enable", inst.Name)
			}
			prev = inst.Out
		}
		if sc.SOs[c.Index] != prev {
			t.Fatalf("chain %s scan-out mismatch", c.Name)
		}
	}
}

func TestChainCountNearBudget(t *testing.T) {
	_, sc := inserted(t, true)
	cfg := DefaultConfig()
	// Proportional allocation with floors can exceed the budget slightly
	// (six domains + neg-edge chain), but must stay in the same ballpark.
	if len(sc.Chains) < 6 || len(sc.Chains) > cfg.NumChains+6 {
		t.Fatalf("%d chains for budget %d", len(sc.Chains), cfg.NumChains)
	}
}

// TestShiftInMatchesStateOf shifts random vectors through the stitched
// netlist and checks every cell lands where Chain.Flops says: the order
// launch-off-shift ATPG reads as each cell's shift source.
func TestShiftInMatchesStateOf(t *testing.T) {
	d, sc := inserted(t, false)
	s, err := sim.New(d)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(4))
	vectors := make([][]logic.V, len(sc.Chains))
	for c := range vectors {
		vectors[c] = make([]logic.V, len(sc.Chains[c].Flops))
		for k := range vectors[c] {
			vectors[c][k] = logic.FromBool(r.Intn(2) == 1)
		}
	}
	pis := make([]logic.V, len(d.PIs))
	for i := range pis {
		pis[i] = logic.Zero
	}
	got, err := shiftIn(sc, s, nil, vectors, pis)
	if err != nil {
		t.Fatal(err)
	}
	want, err := stateOf(sc, vectors)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("flop %d (%s): shifted %v, direct %v",
				i, d.Inst(d.Flops[i]).Name, got[i], want[i])
		}
	}
}

func TestStateOfLengthValidation(t *testing.T) {
	_, sc := inserted(t, false)
	if _, err := stateOf(sc, nil); err == nil {
		t.Fatal("nil vectors accepted")
	}
	bad := make([][]logic.V, len(sc.Chains))
	for c := range bad {
		bad[c] = make([]logic.V, len(sc.Chains[c].Flops))
	}
	bad[0] = bad[0][:len(bad[0])-1]
	if _, err := stateOf(sc, bad); err == nil {
		t.Fatal("short vector accepted")
	}
}

func TestShiftValidation(t *testing.T) {
	d, sc := inserted(t, false)
	s, _ := sim.New(d)
	if _, err := shiftIn(sc, s, nil, nil, nil); err == nil {
		t.Fatal("nil vectors accepted")
	}
}

func TestSerpentineOrderingReducesWirelength(t *testing.T) {
	dOrdered, scOrdered := inserted(t, true)
	dPlain, _, err := soc.Generate(soc.DefaultConfig(64))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := place.Place(dPlain, 1); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.OrderByPlacement = false
	scPlain, err := Insert(dPlain, cfg)
	if err != nil {
		t.Fatal(err)
	}
	length := func(d *netlist.Design, sc *Scan) float64 {
		total := 0.0
		for _, c := range sc.Chains {
			for k := 1; k < len(c.Flops); k++ {
				total += place.Dist(d.Inst(c.Flops[k-1]), d.Inst(c.Flops[k]))
			}
		}
		return total
	}
	lo, lp := length(dOrdered, scOrdered), length(dPlain, scPlain)
	if lo >= lp {
		t.Fatalf("placement-ordered chains (%v) not shorter than design order (%v)", lo, lp)
	}
}

func TestInsertErrors(t *testing.T) {
	d, _, err := soc.Generate(soc.DefaultConfig(64))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Insert(d, Config{NumChains: 0}); err == nil {
		t.Fatal("zero chains accepted")
	}
}

func TestFlushTestPassesOnIntactChains(t *testing.T) {
	d, sc := inserted(t, false)
	s, err := sim.New(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.FlushTest(s, nil); err != nil {
		t.Fatalf("intact chains failed flush: %v", err)
	}
	// A custom sequence works too.
	if err := sc.FlushTest(s, []logic.V{logic.One, logic.Zero}); err != nil {
		t.Fatalf("custom flush failed: %v", err)
	}
}

func TestFlushTestDetectsBrokenChain(t *testing.T) {
	d, sc := inserted(t, false)
	s, err := sim.New(d)
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage: disconnect a mid-chain SI and tie it to constant scan-in
	// of another chain, breaking the shift path.
	victim := sc.Chains[0].Flops[len(sc.Chains[0].Flops)/2]
	d.SetInput(victim, 1, sc.SIs[len(sc.SIs)-1])
	s2, err := sim.New(d)
	if err != nil {
		t.Fatal(err)
	}
	_ = s
	if err := sc.FlushTest(s2, nil); err == nil {
		t.Fatal("broken chain passed flush")
	}
}
