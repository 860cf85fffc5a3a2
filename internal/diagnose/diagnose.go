// Package diagnose implements effect-cause fault diagnosis, the flow the
// paper prescribes for patterns that fail on silicon ("we prefer to apply
// this technique ... to debug any pattern which is identified to fail due
// to IR-drop effects"): given the tester's failing-flop log per pattern,
// candidate transition faults are ranked by how well their simulated
// failure signatures explain the observations. A genuine delay defect
// matches one fault's signature closely; IR-drop overkill matches none —
// which is exactly how the two are told apart before a lot is scrapped.
package diagnose

import (
	"fmt"
	"math/bits"
	"sort"

	"scap/internal/atpg"
	"scap/internal/fault"
	"scap/internal/faultsim"
)

// Observation is one pattern's tester response: the flops (design flop
// order) whose captured values mismatched expectation. An empty list means
// the pattern passed — passing patterns prune candidates too.
type Observation struct {
	Pattern      atpg.Pattern
	FailingFlops []int
}

// Candidate is one ranked explanation.
type Candidate struct {
	Fault int // index into the fault list
	// Matched / Predicted / Observed tally (pattern, flop) failure pairs.
	Matched, Predicted, Observed int
	// Score is the Tarmac-style ranking: matches minus mispredictions
	// minus unexplained observations.
	Score float64
}

// Options tunes the ranking.
type Options struct {
	Dom int
	// TopK bounds the returned candidate list (default 10).
	TopK int
	// MispredictWeight and MissWeight penalize predicted-but-not-observed
	// and observed-but-not-predicted failures (defaults 0.5 and 1.0).
	MispredictWeight, MissWeight float64
}

// Run ranks every fault of the list against the observations and returns
// the best TopK explanations, best first.
func Run(fs *faultsim.Sim, l *fault.List, obs []Observation, opts Options) ([]Candidate, error) {
	if len(obs) == 0 {
		return nil, fmt.Errorf("diagnose: no observations")
	}
	if opts.TopK <= 0 {
		opts.TopK = 10
	}
	if opts.MispredictWeight == 0 {
		opts.MispredictWeight = 0.5
	}
	if opts.MissWeight == 0 {
		opts.MissWeight = 1.0
	}

	// Batch the observations (≤64 per batch) and accumulate per-fault
	// tallies across batches.
	type tally struct{ matched, predicted int }
	tallies := make(map[int]*tally)
	observedTotal := 0

	var pk atpg.Packer
	pats := make([]atpg.Pattern, 0, 64)
	for base := 0; base < len(obs); base += 64 {
		chunk := obs[base:min(base+64, len(obs))]
		pats = pats[:0]
		for s := range chunk {
			pats = append(pats, chunk[s].Pattern)
		}
		b := pk.GoodSim(fs, pats, opts.Dom)

		// Observed failure masks per flop for this chunk.
		obsMask := map[int]uint64{}
		for s, ob := range chunk {
			observedTotal += len(ob.FailingFlops)
			for _, fi := range ob.FailingFlops {
				obsMask[fi] |= 1 << uint(s)
			}
		}

		for cf := range l.Faults {
			flops, masks := fs.FailSlots(b, &l.Faults[cf])
			if len(flops) == 0 {
				continue
			}
			t := tallies[cf]
			if t == nil {
				t = &tally{}
				tallies[cf] = t
			}
			for i, flop := range flops {
				t.predicted += bits.OnesCount64(masks[i])
				t.matched += bits.OnesCount64(masks[i] & obsMask[flop])
			}
		}
	}

	cands := make([]Candidate, 0, len(tallies))
	for cf, t := range tallies {
		mispred := t.predicted - t.matched
		missed := observedTotal - t.matched
		cands = append(cands, Candidate{
			Fault: cf, Matched: t.matched, Predicted: t.predicted, Observed: observedTotal,
			Score: float64(t.matched) -
				opts.MispredictWeight*float64(mispred) -
				opts.MissWeight*float64(missed),
		})
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].Score != cands[b].Score {
			return cands[a].Score > cands[b].Score
		}
		return cands[a].Fault < cands[b].Fault
	})
	if len(cands) > opts.TopK {
		cands = cands[:opts.TopK]
	}
	return cands, nil
}

// Observe builds the tester response an actual defect would produce: it
// simulates the defect fault on each pattern and records the failing
// flops. It is the test-side oracle used in the examples and tests.
func Observe(fs *faultsim.Sim, l *fault.List, defect int, pats []atpg.Pattern, dom int) ([]Observation, error) {
	var out []Observation
	var pk atpg.Packer
	for base := 0; base < len(pats); base += 64 {
		chunk := pats[base:min(base+64, len(pats))]
		b := pk.GoodSim(fs, chunk, dom)
		flops, masks := fs.FailSlots(b, &l.Faults[defect])
		for s := range chunk {
			ob := Observation{Pattern: chunk[s]}
			for i, flop := range flops {
				if masks[i]&(1<<uint(s)) != 0 {
					ob.FailingFlops = append(ob.FailingFlops, flop)
				}
			}
			sort.Ints(ob.FailingFlops)
			out = append(out, ob)
		}
	}
	return out, nil
}
