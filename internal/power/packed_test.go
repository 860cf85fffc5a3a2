package power

import (
	"math/rand"
	"testing"

	"scap/internal/faultsim"
	"scap/internal/logic"
	"scap/internal/sim"
	"scap/internal/soc"
)

// scalarEstimate is the single-pattern counterpart of PackedEstimate, the
// reference the packed path is property-tested against (bit-identical
// floats: both accumulate in instance order).
type scalarEstimate struct {
	Toggles              int
	EnergyVDD, EnergyVSS float64
	BlockEnergyVDD       []float64
}

// zeroDelayEstimate computes the zero-delay switching estimate of one
// pattern from scalar settled frames (per-net values, e.g. a Simulator
// Propagate result per frame).
func (m *Meter) zeroDelayEstimate(n1, n2 []logic.V) *scalarEstimate {
	d := m.d
	est := &scalarEstimate{BlockEnergyVDD: make([]float64, d.NumBlocks)}
	for i := range d.Insts {
		out := d.Insts[i].Out
		v1, v2 := n1[out], n2[out]
		if v1 == logic.X || v2 == logic.X || v1 == v2 {
			continue
		}
		est.Toggles++
		e := m.capOf[i] * m.vdd2
		if v2 == logic.One {
			est.EnergyVDD += e
			if b := d.Insts[i].Block; b >= 0 {
				est.BlockEnergyVDD[b] += e
			}
		} else {
			est.EnergyVSS += e
		}
	}
	return est
}

// randomScalar returns a random three-valued vector with a sprinkling of X.
func randomScalar(r *rand.Rand, n int) []logic.V {
	v := make([]logic.V, n)
	for i := range v {
		switch r.Intn(8) {
		case 0:
			v[i] = logic.X
		case 1, 2, 3:
			v[i] = logic.Zero
		default:
			v[i] = logic.One
		}
	}
	return v
}

// TestPackedEstimateMatchesScalarZeroDelay is the property behind the
// packed pre-screen: every slot of PackedEstimate must reproduce — to the
// exact float, since both accumulate in instance order — the scalar
// zero-delay estimate computed from that single pattern's settled frames.
func TestPackedEstimateMatchesScalarZeroDelay(t *testing.T) {
	d, _, err := soc.Generate(soc.DefaultConfig(96))
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(d)
	if err != nil {
		t.Fatal(err)
	}
	fs := faultsim.New(s)
	m := NewMeter(d)
	r := rand.New(rand.NewSource(41))

	const dom, nPat = 0, 50 // a partial batch exercises the valid mask too
	slotV1 := make([][]logic.V, nPat)
	slotPI := make([][]logic.V, nPat)
	for p := 0; p < nPat; p++ {
		slotV1[p] = randomScalar(r, len(d.Flops))
		slotPI[p] = randomScalar(r, len(d.PIs))
	}
	v1W := logic.PackSlots(nil, slotV1)
	piW := logic.PackSlots(nil, slotPI)
	b := fs.GoodSim(v1W, piW, dom, logic.ValidMask(nPat))
	// Fill the estimate from an unrelated full batch first: the refill
	// must zero every slot, the ones past the valid mask included, and
	// reuse the slices it already has.
	otherV1 := make([][]logic.V, 64)
	otherPI := make([][]logic.V, 64)
	for p := range otherV1 {
		otherV1[p] = randomScalar(r, len(d.Flops))
		otherPI[p] = randomScalar(r, len(d.PIs))
	}
	var est PackedEstimate
	full := fs.GoodSim(logic.PackSlots(nil, otherV1), logic.PackSlots(nil, otherPI), dom, ^uint64(0))
	m.PackedEstimate(&est, full.N1, full.N2, full.Valid)
	if est.Toggles[63] == 0 {
		t.Fatal("degenerate test: the first fill left the last slot empty")
	}
	if a := testing.AllocsPerRun(4, func() { m.PackedEstimate(&est, b.N1, b.N2, b.Valid) }); a != 0 {
		t.Fatalf("refilling an estimate: %v allocations per call", a)
	}

	totToggles := 0
	for p := 0; p < nPat; p++ {
		// Scalar reference frames: settle frame 1, capture, settle frame 2.
		n1 := s.NewNets()
		s.SetPIs(n1, slotPI[p])
		s.ApplyState(n1, slotV1[p])
		s.Propagate(n1)
		cap1 := s.CaptureState(n1)
		v2 := make([]logic.V, len(d.Flops))
		for i, f := range d.Flops {
			if d.Inst(f).Domain == dom {
				v2[i] = cap1[i]
			} else {
				v2[i] = slotV1[p][i]
			}
		}
		n2 := s.NewNets()
		s.SetPIs(n2, slotPI[p])
		s.ApplyState(n2, v2)
		s.Propagate(n2)

		want := m.zeroDelayEstimate(n1, n2)
		if est.Toggles[p] != want.Toggles {
			t.Fatalf("pattern %d: packed toggles %d, scalar %d", p, est.Toggles[p], want.Toggles)
		}
		if est.EnergyVDD[p] != want.EnergyVDD || est.EnergyVSS[p] != want.EnergyVSS {
			t.Fatalf("pattern %d: packed energy %v/%v, scalar %v/%v",
				p, est.EnergyVDD[p], est.EnergyVSS[p], want.EnergyVDD, want.EnergyVSS)
		}
		for blk := range want.BlockEnergyVDD {
			if est.BlockEnergyVDD[p][blk] != want.BlockEnergyVDD[blk] {
				t.Fatalf("pattern %d block %d: packed %v, scalar %v",
					p, blk, est.BlockEnergyVDD[p][blk], want.BlockEnergyVDD[blk])
			}
		}
		totToggles += want.Toggles
	}
	if est.TotalToggles != totToggles {
		t.Fatalf("TotalToggles %d != per-slot sum %d", est.TotalToggles, totToggles)
	}
	// Slots beyond the valid mask must stay empty.
	for p := nPat; p < 64; p++ {
		if est.Toggles[p] != 0 || est.EnergyVDD[p] != 0 || est.EnergyVSS[p] != 0 {
			t.Fatalf("invalid slot %d carries estimate %d/%v/%v",
				p, est.Toggles[p], est.EnergyVDD[p], est.EnergyVSS[p])
		}
	}
	if totToggles == 0 {
		t.Fatal("degenerate test: no toggles at all")
	}
}

// TestZeroDelayEstimateCountsFlops pins the meter-comparability contract:
// flop launch transitions are part of the packed estimate, exactly as the
// event-driven meter counts their Q-output transitions.
func TestZeroDelayEstimateCountsFlops(t *testing.T) {
	d, _, err := soc.Generate(soc.DefaultConfig(96))
	if err != nil {
		t.Fatal(err)
	}
	m := NewMeter(d)
	// Build one-slot frames where only one flop's Q net differs: it rises.
	n1 := make([]logic.Word, d.NumNets())
	n2 := make([]logic.Word, d.NumNets())
	for i := range n1 {
		n1[i], n2[i] = logic.Splat(logic.Zero), logic.Splat(logic.Zero)
	}
	f := d.Flops[0]
	n2[d.Inst(f).Out] = logic.Splat(logic.One)
	var est PackedEstimate
	m.PackedEstimate(&est, n1, n2, logic.ValidMask(1))
	// With every other net pinned equal, the flop's own output is the only
	// toggle, and it charges from VDD.
	if est.Toggles[0] != 1 || est.TotalToggles != 1 {
		t.Fatalf("flop launch transition: %d toggles in slot 0, %d in total, want 1",
			est.Toggles[0], est.TotalToggles)
	}
	if want := d.LoadCap(f) * (d.Lib.VDD * d.Lib.VDD); est.EnergyVDD[0] != want || est.EnergyVSS[0] != 0 {
		t.Fatalf("flop launch energy %v/%v, want %v/0", est.EnergyVDD[0], est.EnergyVSS[0], want)
	}
}
