package core

import (
	"fmt"
	"math"
	"sort"

	"scap/internal/atpg"
	"scap/internal/fault"
	"scap/internal/faultsim"
	"scap/internal/obs"
	"scap/internal/parallel"
)

// FaultGrade records through how long a path one fault was detected.
// A transition fault detected through a short path only screens gross
// delay defects; small-delay defects escape by the slack. This is the
// quality argument behind the authors' faster-than-at-speed companion
// work (the paper's ref [20]).
type FaultGrade struct {
	Fault   int
	Pattern int
	// DetectDelayNs is the longest measured endpoint delay among the
	// flops that observe the fault (relative to each flop's own clock).
	DetectDelayNs float64
	// SlackNs is Period - DetectDelayNs: the size of delay defect that
	// escapes this detection.
	SlackNs float64
}

// QualityReport aggregates detection-path quality over a pattern set.
type QualityReport struct {
	PeriodNs   float64
	Grades     []FaultGrade
	MeanSlack  float64
	WorstSlack float64 // the largest escape window
	BestSlack  float64
	// Deciles[i] counts faults whose detect delay falls in
	// [i*10%, (i+1)*10%) of the period: mass on the left means short-path
	// detections that screen little.
	Deciles [10]int
}

// gradeEntry is one (fault, detecting pattern) pair scheduled into a
// 64-pattern batch: slot is the pattern's slot in the packed good-machine
// batch, pat its index in the flow's pattern list.
type gradeEntry struct {
	fi, slot, pat int
}

// GradeDetections measures, for up to maxFaults detected faults of the
// flow, the timing-simulated delay of the paths their detecting patterns
// exercise. Faults are graded against their first detecting pattern.
//
// The grading engine is fully packed: detecting patterns are grouped 64
// per good-machine batch (one GoodSim where the old path ran one per
// pattern with a single valid slot), the per-pattern timing launches and
// the per-fault failure-signature propagations both fan out across
// sys.Workers, and signatures come from the allocation-free FailSlots
// instead of a fresh map per fault. Batches run in sorted pattern order
// and the per-fault results merge serially in schedule order, so the
// report is bit-identical for any worker count.
func (sys *System) GradeDetections(fr *FlowResult, maxFaults int) (*QualityReport, error) {
	defer obs.StartSpan("grade-detections").End()
	if maxFaults <= 0 {
		maxFaults = 1 << 30
	}
	d, l := sys.D, fr.Faults

	// Group detected faults by detecting pattern.
	byPat := map[int][]int{}
	taken := 0
	for _, fi := range fr.Subset {
		if l.Status[fi] != fault.Detected || taken >= maxFaults {
			continue
		}
		p := l.DetectedBy[fi]
		if p < 0 || p >= len(fr.Patterns) {
			continue
		}
		byPat[p] = append(byPat[p], fi)
		taken++
	}
	if taken == 0 {
		return nil, fmt.Errorf("core: flow has no graded detections")
	}
	pats := make([]int, 0, len(byPat))
	for p := range byPat {
		pats = append(pats, p)
	}
	sort.Ints(pats)

	workers := parallel.Resolve(sys.Workers)
	tpool := sys.profPool(workers)
	// Per-worker fault simulators: the shared FSim serves worker 0, the
	// rest get clones with private cone scratch.
	sims := make([]*faultsim.Sim, workers)
	sims[0] = sys.FSim
	for w := 1; w < workers; w++ {
		sims[w] = sys.FSim.Clone()
	}

	rep := &QualityReport{PeriodNs: sys.Period, BestSlack: math.Inf(1)}
	nf := len(d.Flops)
	nSlots := 64
	if len(pats) < nSlots {
		nSlots = len(pats)
	}
	// Per-slot endpoint timing of the batch's patterns (copied out of the
	// worker launch scratches, reused across batches).
	arr := make([][]float64, nSlots)
	act := make([][]bool, nSlots)
	for s := range arr {
		arr[s] = make([]float64, nf)
		act[s] = make([]bool, nf)
	}
	var pk atpg.Packer
	batchPats := make([]atpg.Pattern, 0, nSlots)
	var entries []gradeEntry
	var delays []float64

	for lo := 0; lo < len(pats); lo += 64 {
		hi := lo + 64
		if hi > len(pats) {
			hi = len(pats)
		}
		batch := pats[lo:hi]

		// One packed good-machine simulation for the whole batch.
		batchPats = batchPats[:0]
		for _, pi := range batch {
			batchPats = append(batchPats, fr.Patterns[pi])
		}
		b := pk.GoodSim(sys.FSim, batchPats, fr.Dom)

		// Timing: per-endpoint arrivals of every batch pattern (no power
		// accounting — the meters stay idle, the scratches are reused).
		tw := workers
		if tw > len(batch) {
			tw = len(batch)
		}
		err := parallel.For(tw, len(batch), func(w, s int) error {
			p := &fr.Patterns[batch[s]]
			res, err := tpool[w].launch(sys, p.V1, p.PIs, fr.Dom, nil)
			if err != nil {
				return fmt.Errorf("core: grading pattern %d: %w", batch[s], err)
			}
			copy(arr[s], res.EndpointArrival)
			copy(act[s], res.EndpointActive)
			return nil
		})
		if err != nil {
			return nil, err
		}

		// Fault grading: propagate every scheduled fault's failure
		// signature through the packed batch, one index-addressed delay
		// per entry.
		entries = entries[:0]
		for s, pi := range batch {
			for _, fi := range byPat[pi] {
				entries = append(entries, gradeEntry{fi: fi, slot: s, pat: pi})
			}
		}
		if cap(delays) < len(entries) {
			delays = make([]float64, len(entries))
		}
		delays = delays[:len(entries)]
		fw := workers
		if fw > len(entries) {
			fw = len(entries)
		}
		err = parallel.For(fw, len(entries), func(w, i int) error {
			e := entries[i]
			flops, masks := sims[w].FailSlots(b, &l.Faults[e.fi])
			bit := uint64(1) << uint(e.slot)
			delay := 0.0
			for j, flop := range flops {
				if masks[j]&bit == 0 || !act[e.slot][flop] {
					continue
				}
				dd := arr[e.slot][flop] - sys.Tree.Arrival(d.Flops[flop])
				if dd > delay {
					delay = dd
				}
			}
			delays[i] = delay
			return nil
		})
		if err != nil {
			return nil, err
		}

		// Serial merge in schedule order: identical float accumulation for
		// any worker count.
		for i := range entries {
			e, delay := &entries[i], delays[i]
			if delay <= 0 {
				continue // fault observed through a non-transitioning path
			}
			g := FaultGrade{
				Fault: e.fi, Pattern: e.pat,
				DetectDelayNs: delay, SlackNs: sys.Period - delay,
			}
			rep.Grades = append(rep.Grades, g)
			rep.MeanSlack += g.SlackNs
			if g.SlackNs > rep.WorstSlack {
				rep.WorstSlack = g.SlackNs
			}
			if g.SlackNs < rep.BestSlack {
				rep.BestSlack = g.SlackNs
			}
			dec := int(delay / sys.Period * 10)
			if dec < 0 {
				dec = 0
			}
			if dec > 9 {
				dec = 9
			}
			rep.Deciles[dec]++
		}
	}
	if len(rep.Grades) == 0 {
		return nil, fmt.Errorf("core: no gradable detections")
	}
	rep.MeanSlack /= float64(len(rep.Grades))
	return rep, nil
}
