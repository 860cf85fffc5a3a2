package core

import (
	"fmt"

	"scap/internal/atpg"
	"scap/internal/fault"
	"scap/internal/logic"
	"scap/internal/obs"
	"scap/internal/parallel"
	"scap/internal/power"
	"scap/internal/sim"
	"scap/internal/soc"
)

// FlowResult is one complete pattern-generation flow for a clock domain.
type FlowResult struct {
	Name     string
	Dom      int
	Patterns []atpg.Pattern
	Faults   *fault.List
	// Subset is the domain fault-index set the coverage curve is computed
	// over.
	Subset []int
	// Coverage[i] is the cumulative test coverage (0..1) after pattern i.
	Coverage []float64
	Counts   fault.Counts
}

// ConventionalFlow is the baseline the paper compares against: one ATPG
// run over the whole domain with random fill for maximal fortuitous
// detection — and maximal switching activity.
func (sys *System) ConventionalFlow(dom int) (*FlowResult, error) {
	defer obs.StartSpan("flow:conventional").End()
	l := sys.NewFaultList()
	res, err := sys.ATPG(l, atpg.Options{
		Dom: dom, Fill: atpg.FillRandom, Seed: sys.Cfg.Seed + 10,
	})
	if err != nil {
		return nil, err
	}
	return sys.finishFlow("conventional", dom, l, res.Patterns)
}

// StepBlocks is the paper's Section 3.1 step ordering for the dominant
// domain: first the low-drop peripheral blocks together, then B6, and the
// hot central block B5 alone at the end, all with fill-0 so untargeted
// blocks stay quiet.
var StepBlocks = [][]int{
	{soc.B1, soc.B2, soc.B3, soc.B4},
	{soc.B6},
	{soc.B5},
}

// NewProcedureFlow is the paper's supply-noise-tolerant procedure: three
// per-block ATPG steps with fill-0. Patterns carry their step index.
func (sys *System) NewProcedureFlow(dom int) (*FlowResult, error) {
	return sys.StepFlow("new-procedure", dom, StepBlocks, atpg.Fill0)
}

// StepFlow runs a multi-step block-targeted flow with the given fill (the
// generalized form used by the ablation benches). Compaction is bounded by
// a care-bit budget proportional to the targeted blocks' flop population,
// so the per-pattern care density — and with it the launch activity that
// fill-0 cannot suppress — stays scale-invariant.
func (sys *System) StepFlow(name string, dom int, steps [][]int, fill atpg.Fill) (*FlowResult, error) {
	defer obs.StartSpan("flow:" + name).End()
	l := sys.NewFaultList()
	var all []atpg.Pattern
	for si, blocks := range steps {
		budget := sys.careBudget(dom, blocks)
		step := obs.StartSpan(fmt.Sprintf("step%d", si+1))
		res, err := sys.ATPG(l, atpg.Options{
			Dom: dom, Fill: fill, Seed: sys.Cfg.Seed + 20 + int64(si),
			Blocks: blocks, PatternBase: len(all), CareBudget: budget,
		})
		step.End()
		if err != nil {
			return nil, fmt.Errorf("core: step %d: %w", si+1, err)
		}
		for i := range res.Patterns {
			res.Patterns[i].Step = si
		}
		all = append(all, res.Patterns...)
	}
	return sys.finishFlow(name, dom, l, all)
}

// careBudget returns the compaction care-bit budget for a step: ~1% of the
// targeted blocks' domain flops (the care density full-size industrial
// patterns exhibit), floored so single faults always fit.
func (sys *System) careBudget(dom int, blocks []int) int {
	want := map[int]bool{}
	for _, b := range blocks {
		want[b] = true
	}
	n := 0
	for _, f := range sys.D.Flops {
		inst := sys.D.Inst(f)
		if inst.Domain == dom && want[inst.Block] {
			n++
		}
	}
	budget := n / 100
	if budget < 12 {
		budget = 12
	}
	return budget
}

// finishFlow computes the coverage curve over the domain's fault subset.
func (sys *System) finishFlow(name string, dom int, l *fault.List, pats []atpg.Pattern) (*FlowResult, error) {
	subset := l.InDomain(dom)
	fr := &FlowResult{
		Name: name, Dom: dom, Patterns: pats, Faults: l,
		Subset: subset, Counts: l.CountOf(subset),
	}
	detectedAt := make([]int, len(pats))
	testable := 0
	for _, fi := range subset {
		if l.Status[fi] == fault.Detected {
			p := l.DetectedBy[fi]
			if p >= 0 && p < len(pats) {
				detectedAt[p]++
			}
		}
		if l.Status[fi] != fault.Untestable {
			testable++
		}
	}
	fr.Coverage = make([]float64, len(pats))
	cum := 0
	for i, n := range detectedAt {
		cum += n
		if testable > 0 {
			fr.Coverage[i] = float64(cum) / float64(testable)
		}
	}
	return fr, nil
}

// PatternProfile is the per-pattern power summary used by the Figure 2 and
// Figure 6 experiments.
type PatternProfile struct {
	Index       int
	Target      int
	TargetBlock int
	Step        int
	STW         float64
	Toggles     int
	// ChipSCAPVdd and BlockSCAPVdd are the pattern's SCAP values (mW) at
	// the top level and per block.
	ChipSCAPVdd  float64
	ChipCAPVdd   float64
	BlockSCAPVdd []float64
}

// profScratch is one worker's simulator state for the per-pattern
// analysis loops: a meter, a timing simulator and a reusable launch
// scratch nothing else touches, plus the V2 derivation buffers.
type profScratch struct {
	meter *power.Meter
	tm    *sim.Timing
	ls    *sim.LaunchScratch
	// toggle is meter.OnToggle bound once: creating the method value per
	// launch would be the last steady-state allocation on the hot path.
	toggle     sim.ToggleFn
	v2, capBuf []logic.V
}

// profPool builds one scratch state per worker. Each clones the
// system's meter and Timing, sharing only their immutable tables, and
// owns a private LaunchScratch, so steady-state launches allocate
// nothing.
func (sys *System) profPool(workers int) []profScratch {
	pool := make([]profScratch, workers)
	nf := len(sys.D.Flops)
	for w := range pool {
		m := sys.meter.Clone()
		pool[w] = profScratch{
			meter:  m,
			tm:     sys.tm.Clone(),
			ls:     sim.NewLaunchScratch(sys.Sim),
			toggle: m.OnToggle,
			v2:     make([]logic.V, nf),
			capBuf: make([]logic.V, nf),
		}
	}
	return pool
}

// launch derives the pattern's V2 state into ps.v2 and runs one timing
// launch, all on the worker's reusable scratch: the settle performed for
// the V2 derivation is cached in the scratch, so the launch itself
// re-settles nothing. Every launch in this package runs here. The
// returned Result lives in the scratch and is valid until the worker's
// next launch; ps.v2 holds the V2 state until then too.
func (ps *profScratch) launch(sys *System, v1, pis []logic.V, dom int, onToggle sim.ToggleFn) (*sim.Result, error) {
	v2, err := sys.LaunchStateInto(ps.ls, ps.v2, ps.capBuf, v1, pis, dom)
	if err != nil {
		return nil, err
	}
	return ps.tm.LaunchInto(ps.ls, v1, v2, pis, sys.Period, onToggle)
}

// profile is the per-pattern step of the profiling loops: it resets the
// worker's meter, runs one metered launch of fr.Patterns[pi], fills pp
// from the meter's block report. The meter keeps the pattern's
// per-instance energies until its next reset.
func (ps *profScratch) profile(sys *System, fr *FlowResult, pi int, pp *PatternProfile) (*sim.Result, error) {
	p := &fr.Patterns[pi]
	ps.meter.Reset()
	res, err := ps.launch(sys, p.V1, p.PIs, fr.Dom, ps.toggle)
	if err != nil {
		return nil, err
	}
	blocks := ps.meter.ReportBlocks(sys.Period)
	chip := &blocks[sys.D.NumBlocks]
	pp.Index, pp.Target, pp.Step = pi, p.Target, p.Step
	pp.TargetBlock = fr.Faults.Faults[p.Target].Block
	pp.STW = res.STW
	pp.Toggles = res.Toggles
	pp.ChipSCAPVdd = chip.SCAPVdd
	pp.ChipCAPVdd = chip.CAPVdd
	pp.BlockSCAPVdd = make([]float64, sys.D.NumBlocks)
	for b := 0; b < sys.D.NumBlocks; b++ {
		pp.BlockSCAPVdd[b] = blocks[b].SCAPVdd
	}
	return res, nil
}

// ProfilePatterns runs the streaming SCAP calculator (timing simulation +
// power meter) over a whole pattern set and returns one summary per
// pattern. The patterns are independent, so the loop fans out across
// sys.Workers workers (0 = all cores, 1 = the exact serial path), each
// owning a cloned meter and timing simulator; every pattern writes only
// its own slot, so the output is identical for any worker count.
func (sys *System) ProfilePatterns(fr *FlowResult) ([]PatternProfile, error) {
	idx := make([]int, len(fr.Patterns))
	for i := range idx {
		idx[i] = i
	}
	return sys.ProfilePatternsAt(fr, idx)
}

// ProfilePatternsAt is ProfilePatterns restricted to a subset of pattern
// indexes — the exact-verification half of the screen-then-verify
// pipeline (feed it ScreenTop's selection). out[i] profiles
// fr.Patterns[idx[i]] and carries the original pattern index.
func (sys *System) ProfilePatternsAt(fr *FlowResult, idx []int) ([]PatternProfile, error) {
	defer obs.StartSpan("profile-patterns").End()
	for _, pi := range idx {
		if pi < 0 || pi >= len(fr.Patterns) {
			return nil, fmt.Errorf("core: profile index %d out of range (%d patterns)", pi, len(fr.Patterns))
		}
	}
	workers := parallel.Resolve(sys.Workers)
	if workers > len(idx) && len(idx) > 0 {
		workers = len(idx)
	}
	pool := sys.profPool(workers)
	out := make([]PatternProfile, len(idx))
	err := parallel.For(workers, len(idx), func(w, i int) error {
		if _, err := pool[w].profile(sys, fr, idx[i], &out[i]); err != nil {
			return fmt.Errorf("core: profile pattern %d: %w", idx[i], err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AboveThreshold counts profiles whose SCAP in the given block exceeds the
// threshold (the paper's screening criterion).
func AboveThreshold(profiles []PatternProfile, block int, thresholdMW float64) int {
	n := 0
	for i := range profiles {
		if profiles[i].BlockSCAPVdd[block] > thresholdMW {
			n++
		}
	}
	return n
}
