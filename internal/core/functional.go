package core

import (
	"fmt"
	"math/rand"

	"scap/internal/logic"
)

// FunctionalPower is the per-block average switching power measured over
// simulated functional operation — the baseline the paper's whole argument
// rests on: at-speed test patterns switch far more logic than the mission
// mode the power grid was designed for.
type FunctionalPower struct {
	Cycles int
	// MeanPowerMW[b] is the mean launch-cycle power (VDD+VSS) per block,
	// with the chip at index NumBlocks.
	MeanPowerMW []float64
	// MeanToggles is the mean per-cycle toggle count chip-wide.
	MeanToggles float64
}

// FunctionalPowerSim runs `cycles` functional clock cycles of domain dom
// from a random initial state (seeded), measuring each cycle's switching
// with the timing simulator. Primary inputs change randomly every few
// cycles, bus enables included — mission-mode behaviour, not test mode.
func (sys *System) FunctionalPowerSim(dom, cycles int, seed int64) (*FunctionalPower, error) {
	if cycles <= 0 {
		return nil, fmt.Errorf("core: cycles must be positive")
	}
	d := sys.D
	r := rand.New(rand.NewSource(seed))
	state := make([]logic.V, len(d.Flops))
	for i := range state {
		state[i] = logic.FromBool(r.Intn(2) == 1)
	}
	pis := make([]logic.V, len(d.PIs))
	for i := range pis {
		pis[i] = logic.FromBool(r.Intn(2) == 1)
	}
	if sys.SC != nil {
		pis[d.Nets[sys.SC.SE].PI] = logic.Zero // functional mode
	}

	pool := sys.profPool(1)
	ps := &pool[0]
	fp := &FunctionalPower{Cycles: cycles, MeanPowerMW: make([]float64, d.NumBlocks+1)}
	toggles := 0
	for cyc := 0; cyc < cycles; cyc++ {
		if cyc%7 == 6 { // occasional input activity
			pis[r.Intn(len(pis))] = logic.FromBool(r.Intn(2) == 1)
			if sys.SC != nil {
				pis[d.Nets[sys.SC.SE].PI] = logic.Zero
			}
		}
		ps.meter.Reset()
		res, err := ps.launch(sys, state, pis, dom, ps.toggle)
		if err != nil {
			return nil, fmt.Errorf("core: functional cycle %d: %w", cyc, err)
		}
		blocks := ps.meter.ReportBlocks(sys.Period)
		for b := 0; b <= d.NumBlocks; b++ {
			fp.MeanPowerMW[b] += blocks[b].CAPVdd + blocks[b].CAPVss
		}
		toggles += res.Toggles
		// The launched V2 state is the next cycle's V1.
		copy(state, ps.v2)
	}
	for b := range fp.MeanPowerMW {
		fp.MeanPowerMW[b] /= float64(cycles)
	}
	fp.MeanToggles = float64(toggles) / float64(cycles)
	return fp, nil
}

// TestVsFunctionalRatio compares a pattern set's launch power against the
// functional baseline, per block (the paper: "the switching activity
// during test is far greater and non-uniform than during functional
// operation"). The ratio is the set's mean VDD SCAP of the block (each
// pattern's energy over its own switching window) divided by the block's
// functional mean CAP over VDD and VSS together (energy over the whole
// tester cycle), so its two sides average over different windows.
func TestVsFunctionalRatio(profiles []PatternProfile, functional *FunctionalPower, block int) float64 {
	if len(profiles) == 0 || functional.MeanPowerMW[block] <= 0 {
		return 0
	}
	sum := 0.0
	for i := range profiles {
		sum += profiles[i].BlockSCAPVdd[block]
	}
	meanSCAP := sum / float64(len(profiles))
	return meanSCAP / functional.MeanPowerMW[block]
}
