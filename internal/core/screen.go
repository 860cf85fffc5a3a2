package core

import (
	"math"
	"sort"

	"scap/internal/atpg"
	"scap/internal/obs"
	"scap/internal/parallel"
	"scap/internal/power"
)

// PatternScreen is the packed zero-delay triage estimate of one pattern:
// toggle count and CAP-style average powers derived from popcounts over
// the settled launch frames, with no event-driven timing simulation. It
// ranks patterns by switching activity so the exact SCAP profiler
// (ProfilePatterns) can be reserved for the risky fraction — the
// screen-then-verify pipeline in front of the paper's per-pattern
// validation flow.
type PatternScreen struct {
	Index   int
	Step    int
	Toggles int
	// EstChipCAPVdd is the estimated chip VDD cycle-average power (mW):
	// zero-delay switched energy over the tester period.
	EstChipCAPVdd float64
	// EstBlockCAPVdd is the per-block estimate (mW).
	EstBlockCAPVdd []float64
}

// screenScratch is one ScreenPatterns worker's state: the packer with
// its good-machine batch, and the estimate it refills per batch.
type screenScratch struct {
	pk  atpg.Packer
	est power.PackedEstimate
}

// ScreenPatterns runs the packed zero-delay SCAP pre-screen over a flow's
// pattern set: patterns are packed 64 per good-machine batch, and each
// batch costs two packed settles plus one popcount pass over the design
// (power.PackedEstimate) — orders of magnitude below the event-driven
// profiler. Batches are independent and fan out across sys.Workers; every
// pattern writes only its own slot and the per-slot energies accumulate in
// fixed instance order, so the output is identical for any worker count.
// The per-worker buffers are kept on the system across calls, and
// concurrent calls take turns on them.
func (sys *System) ScreenPatterns(fr *FlowResult) ([]PatternScreen, error) {
	defer obs.StartSpan("screen-patterns").End()
	n := len(fr.Patterns)
	out := make([]PatternScreen, n)
	if n == 0 {
		return out, nil
	}
	nBatches := (n + 63) / 64
	workers := parallel.Resolve(sys.Workers)
	if workers > nBatches {
		workers = nBatches
	}
	sys.screenMu.Lock()
	defer sys.screenMu.Unlock()
	for len(sys.screen) < workers {
		sys.screen = append(sys.screen, screenScratch{})
	}
	nb := sys.D.NumBlocks
	blockCAP := make([]float64, n*nb)
	err := parallel.For(workers, nBatches, func(w, bi int) error {
		lo := bi * 64
		hi := lo + 64
		if hi > n {
			hi = n
		}
		chunk := fr.Patterns[lo:hi]
		// GoodSim touches no Sim scratch, so the shared FSim serves every
		// worker concurrently, each through its own packer, and the
		// estimate reads only the meter's immutable tables.
		sc := &sys.screen[w]
		b := sc.pk.GoodSim(sys.FSim, chunk, fr.Dom)
		est := &sc.est
		sys.meter.PackedEstimate(est, b.N1, b.N2, b.Valid)
		for s := range chunk {
			i := lo + s
			ps := &out[i]
			ps.Index = i
			ps.Step = chunk[s].Step
			ps.Toggles = est.Toggles[s]
			ps.EstChipCAPVdd = est.CAPVdd(s, sys.Period)
			ps.EstBlockCAPVdd = blockCAP[i*nb : (i+1)*nb : (i+1)*nb]
			for blk := 0; blk < nb; blk++ {
				ps.EstBlockCAPVdd[blk] = est.BlockEnergyVDD[s][blk] / sys.Period * 1e-3
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ScreenTop returns the indexes of the top fraction (0..1] of screened
// patterns ranked by estimated VDD CAP in the given block — pass
// block == sys.D.NumBlocks (or any negative value) to rank on the chip
// total. Ties break toward the lower pattern index, so the selection is
// deterministic. The returned indexes are sorted ascending, ready to
// subset a pattern list for exact profiling.
func ScreenTop(screens []PatternScreen, block int, frac float64) []int {
	if len(screens) == 0 || frac <= 0 {
		return nil
	}
	key := func(i int) float64 {
		s := &screens[i]
		if block >= 0 && block < len(s.EstBlockCAPVdd) {
			return s.EstBlockCAPVdd[block]
		}
		return s.EstChipCAPVdd
	}
	idx := make([]int, len(screens))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ka, kb := key(idx[a]), key(idx[b])
		if ka != kb {
			return ka > kb
		}
		return idx[a] < idx[b]
	})
	keep := int(math.Ceil(frac * float64(len(screens))))
	if keep > len(screens) {
		keep = len(screens)
	}
	top := idx[:keep]
	sort.Ints(top)
	return top
}
