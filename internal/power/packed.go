package power

import (
	"math/bits"

	"scap/internal/logic"
)

// PackedEstimate is the zero-delay switching estimate of up to 64 packed
// patterns: for every pattern slot, the toggle count and switched energy
// a settled-frames view of the launch cycle predicts. It deliberately
// ignores glitches and the switching time window — it is the cheap triage
// in front of the exact event-driven meter, not a replacement — so it
// exposes energies (fJ) rather than SCAP, and callers average over the
// tester period (a CAP-style figure) to rank patterns.
type PackedEstimate struct {
	// Valid masks the slots that carried real patterns; other slots hold
	// zeros.
	Valid uint64
	// Toggles[s] counts gate outputs whose settled frame-1 and frame-2
	// values differ in slot s (both defined).
	Toggles []int
	// TotalToggles is the toggle count summed over all valid slots
	// (equals the sum of Toggles — accumulated independently via
	// popcounts as a consistency cross-check).
	TotalToggles int
	// EnergyVDD[s] / EnergyVSS[s] are the chip-level switched energies
	// (fJ) of slot s: rising edges charge from VDD, falling edges
	// discharge into VSS.
	EnergyVDD, EnergyVSS []float64
	// BlockEnergyVDD[s][b] is slot s's rising-edge energy in block b.
	BlockEnergyVDD [][]float64
}

// CAPVdd returns slot s's estimated VDD cycle-average power (mW) over the
// tester period.
func (e *PackedEstimate) CAPVdd(s int, periodNs float64) float64 {
	return mw(e.EnergyVDD[s], periodNs)
}

// PackedEstimate fills est with the zero-delay switching estimate of up to
// 64 packed patterns, computed in one pass over the design: per gate
// output, the dual-rail XOR of the settled frame-1 and frame-2 words
// (`Diff`, the defined-difference mask) gives the slots that toggle,
// `bits.OnesCount64` totals them, and each set bit adds the instance's
// switched capacitance × VDD² to its slot's (and block's) energy. n1 and
// n2 are per-net settled values (a faultsim Batch's N1/N2); valid masks
// the live slots. Flop outputs are included — the event-driven meter
// counts their launch-edge Q transitions too, so the estimate stays
// comparable.
//
// est is caller-owned and zeroed first: a zero PackedEstimate gets its
// slices on the first fill, and a refill reuses them, so a caller that
// keeps one estimate per worker allocates nothing per batch. The meter's
// accumulated pattern state is untouched; the method reads only the
// immutable capacitance table, so concurrent calls on one meter are
// safe as long as each fills its own est.
func (m *Meter) PackedEstimate(est *PackedEstimate, n1, n2 []logic.Word, valid uint64) {
	d := m.d
	est.reset(valid, d.NumBlocks)
	for i := range d.Insts {
		out := d.Insts[i].Out
		w1, w2 := n1[out], n2[out]
		rising := w1.Zero & w2.One & valid
		falling := w1.One & w2.Zero & valid
		diff := rising | falling // == w1.Diff(w2) & valid
		if diff == 0 {
			continue
		}
		est.TotalToggles += bits.OnesCount64(diff)
		e := m.capOf[i] * m.vdd2
		block := d.Insts[i].Block
		for ms := diff; ms != 0; ms &= ms - 1 {
			s := bits.TrailingZeros64(ms)
			est.Toggles[s]++
			if rising&(1<<uint(s)) != 0 {
				est.EnergyVDD[s] += e
				if block >= 0 {
					est.BlockEnergyVDD[s][block] += e
				}
			} else {
				est.EnergyVSS[s] += e
			}
		}
	}
}

// reset zeroes e for a fill over nb blocks, allocating its slices only
// when e is new or was last filled for another block count.
func (e *PackedEstimate) reset(valid uint64, nb int) {
	e.Valid, e.TotalToggles = valid, 0
	if len(e.BlockEnergyVDD) == 64 && len(e.BlockEnergyVDD[0]) == nb {
		clear(e.Toggles)
		clear(e.EnergyVDD)
		clear(e.EnergyVSS)
		for _, row := range e.BlockEnergyVDD {
			clear(row)
		}
		return
	}
	e.Toggles = make([]int, 64)
	e.EnergyVDD = make([]float64, 64)
	e.EnergyVSS = make([]float64, 64)
	e.BlockEnergyVDD = make([][]float64, 64)
	blocks := make([]float64, 64*nb)
	for s := range e.BlockEnergyVDD {
		e.BlockEnergyVDD[s] = blocks[s*nb : (s+1)*nb : (s+1)*nb]
	}
}
