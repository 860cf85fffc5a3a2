package power

import (
	"math/rand"
	"testing"

	"scap/internal/faultsim"
	"scap/internal/logic"
	"scap/internal/sim"
	"scap/internal/soc"
)

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
	est := m.PackedEstimate(b.N1, b.N2, b.Valid)

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

		want := m.ZeroDelayEstimate(n1, n2)
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
// flop launch transitions are part of the estimate, exactly as the
// event-driven meter counts their Q-output transitions.
func TestZeroDelayEstimateCountsFlops(t *testing.T) {
	d, _, err := soc.Generate(soc.DefaultConfig(96))
	if err != nil {
		t.Fatal(err)
	}
	m := NewMeter(d)
	// Build frames where only one flop's Q net differs.
	n1 := make([]logic.V, d.NumNets())
	n2 := make([]logic.V, d.NumNets())
	for i := range n1 {
		n1[i], n2[i] = logic.Zero, logic.Zero
	}
	q := d.Inst(d.Flops[0]).Out
	n2[q] = logic.One
	est := m.ZeroDelayEstimate(n1, n2)
	// The flop itself toggles, plus whatever single-input gates its fanout
	// cone would — but with all other nets pinned equal, only direct
	// output nets count; the flop's own toggle must be included.
	if est.Toggles < 1 || est.EnergyVDD <= 0 {
		t.Fatalf("flop launch transition not counted: %+v", est)
	}
}
