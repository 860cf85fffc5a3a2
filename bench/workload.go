package main

import (
	"sort"

	"scap/internal/core"
	"scap/internal/delayscale"
	"scap/internal/parasitic"
	"scap/internal/pattern"
	"scap/internal/sdf"
	"scap/internal/soc"
	"scap/internal/verilog"
)

// Fixture pattern sets a workload's set-up generates with ATPG.
const (
	fixtureNone         = ""
	fixtureConventional = "conventional"
	fixtureNoiseTol     = "noise-tolerant"
)

// workload is one benchmark input: a design size, a set-up that builds
// the fixture every pass reuses, and a pass, one closed-loop trip through
// the pipeline calls in the order the CLIs make them. Passes share
// nothing but the fixture: each call builds its own worker scratch, as
// it does under the CLIs.
type workload struct {
	name string
	// scale is the SOC scale divisor; gridN the rail mesh edge (0 keeps
	// the default mesh).
	scale, gridN int
	// fixture names the pattern set set-up generates for the analysis
	// passes; fixtureNone means the pass runs ATPG itself.
	fixture string
	// impacts is how many of the hottest patterns (by B5 SCAP) each
	// analysis pass re-simulates with DelayImpact.
	impacts int
	// mcTrials is the MonteCarloIRDrop trial count per analysis pass
	// (0 skips the call).
	mcTrials int
}

// workloads lists the benchmark's workloads. BENCHMARK.json names the
// same four.
var workloads = []workload{
	{
		name: "flow-s32",
		// cmd/flow's path: both ATPG flows take most of a pass, so atpg and faultsim changes show here.
		scale: 32,
	},
	{
		name: "signoff-random",
		// profile, batched IR-drop and re-simulation of the random-fill set: dense launches, so sim and power dominate.
		scale:   16,
		fixture: fixtureConventional,
		impacts: 8,
	},
	{
		name: "signoff-fill0",
		// the same calls on the fill-0 set: sparse launches, so settle and the 40x40 grid solves weigh more.
		scale:   16,
		fixture: fixtureNoiseTol,
		impacts: 8,
	},
	{
		name: "irdrop-mesh128",
		// batched and Monte-Carlo IR-drop on a 128x128 mesh: pgrid dominates, the far side of every solver crossover.
		scale:    16,
		gridN:    128,
		fixture:  fixtureConventional,
		mcTrials: 64,
	},
}

// workloadByName returns the named workload.
func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config derives the run configuration. The workload seed is the
// system seed: placement, clock-tree jitter, ATPG tie-breaking and random
// fill, and the Monte-Carlo draws. The SOC generator keeps its default
// seed, the design the paper anchors are pinned on: a generator seed
// draws a different netlist, whose pattern count and share of patterns
// above the B5 threshold swing by 8 % and 30 % across seeds, so runs on
// different seeds would not measure the same workload.
func (w *workload) config(seed int64, workers int) core.Config {
	cfg := core.DefaultConfig(w.scale)
	cfg.Seed = seed
	cfg.Workers = workers
	if w.gridN > 0 {
		cfg.Grid.N = w.gridN
	}
	return cfg
}

// fixture is what set-up builds: the system with its grids factored (the
// statistical analysis factors both rails) and, for the analysis
// workloads, the pattern set the passes analyse.
type fixture struct {
	sys  *core.System
	stat *core.StatAnalysis
	set  *core.FlowResult
}

// setup builds the fixture through the recorder.
func (w *workload) setup(cfg core.Config, r *recorder) (*fixture, error) {
	fx := &fixture{}
	c := caller{r: r}
	c.do("core.Build", func() (err error) { fx.sys, err = core.Build(cfg); return })
	c.do("core.Statistical", func() (err error) { fx.stat, err = fx.sys.Statistical(); return })
	switch w.fixture {
	case fixtureConventional:
		c.do("core.ConventionalFlow", func() (err error) { fx.set, err = fx.sys.ConventionalFlow(0); return })
	case fixtureNoiseTol:
		c.do("core.NewProcedureFlow", func() (err error) { fx.set, err = fx.sys.NewProcedureFlow(0); return })
	}
	return fx, c.err
}

// passOut is everything one pass produces; the digest and the checks
// read it.
type passOut struct {
	stat  *core.StatAnalysis
	sets  []*core.FlowResult
	profs [][]core.PatternProfile // one per set
	// drops are the batched IR-drop summaries of sets[0] (analysis passes).
	drops []core.IRDropSummary
	// hot lists the sets[0] patterns DelayImpact re-simulated, hottest first.
	hot     []int
	impacts []*delayscale.Impact
	mc      *core.MCResult
	grade   *core.QualityReport
	// artifactBytes counts what the Verilog, SPEF, SDF and pattern
	// writers produced.
	artifactBytes int64
}

// pass runs one timed pass.
func (w *workload) pass(fx *fixture, r *recorder) (*passOut, error) {
	if w.fixture == fixtureNone {
		return flowPass(fx, r)
	}
	return w.analysisPass(fx, r)
}

// flowPass is cmd/flow's default path after Build: scan flush test, the
// netlist/parasitic/delay artifacts, the statistical analysis, both ATPG
// flows and their pattern files, SCAP profiles of both sets, and the
// detection-quality grade of the conventional set.
func flowPass(fx *fixture, r *recorder) (*passOut, error) {
	sys := fx.sys
	out := &passOut{}
	var cw countingWriter
	var conv, nt *core.FlowResult
	var pc, pn []core.PatternProfile
	c := caller{r: r}
	c.do("scan.FlushTest", func() error { return sys.SC.FlushTest(sys.Sim, nil) })
	c.do("verilog.Write", func() error { return verilog.Write(&cw, sys.D) })
	c.do("parasitic.WriteSPEF", func() error { return parasitic.WriteSPEF(&cw, sys.D) })
	c.do("sdf.Write", func() error { return sdf.Write(&cw, sys.D, sys.Delays) })
	c.do("core.Statistical", func() (err error) { out.stat, err = sys.Statistical(); return })
	c.do("core.ConventionalFlow", func() (err error) { conv, err = sys.ConventionalFlow(0); return })
	c.do("core.NewProcedureFlow", func() (err error) { nt, err = sys.NewProcedureFlow(0); return })
	c.do("pattern.Write", func() error { return pattern.Write(&cw, sys.D, conv.Patterns) })
	c.do("pattern.Write", func() error { return pattern.Write(&cw, sys.D, nt.Patterns) })
	c.do("core.ProfilePatterns", func() (err error) { pc, err = sys.ProfilePatterns(conv); return })
	c.do("core.ProfilePatterns", func() (err error) { pn, err = sys.ProfilePatterns(nt); return })
	c.do("core.GradeDetections", func() (err error) { out.grade, err = sys.GradeDetections(conv, 2000); return })
	if c.err != nil {
		return nil, c.err
	}
	out.sets = []*core.FlowResult{conv, nt}
	out.profs = [][]core.PatternProfile{pc, pn}
	out.artifactBytes = cw.n
	return out, nil
}

// analysisPass is the scap + irdrop -all -dynamic composition on the
// fixture set: SCAP profiles, batched SCAP-window IR-drop, then the
// delay-scaled re-simulation of the hottest B5 patterns and, on the
// mesh workload, the Monte-Carlo statistical analysis.
func (w *workload) analysisPass(fx *fixture, r *recorder) (*passOut, error) {
	sys, fr := fx.sys, fx.set
	out := &passOut{stat: fx.stat, sets: []*core.FlowResult{fr}}
	var prof []core.PatternProfile
	c := caller{r: r}
	c.do("core.ProfilePatterns", func() (err error) { prof, err = sys.ProfilePatterns(fr); return })
	c.do("core.DynamicIRDropAll", func() (err error) { out.drops, err = sys.DynamicIRDropAll(fr, core.ModelSCAP); return })
	if c.err != nil {
		return nil, c.err
	}
	out.profs = [][]core.PatternProfile{prof}
	out.hot = hottest(prof, w.impacts)
	out.impacts = make([]*delayscale.Impact, len(out.hot))
	for i, pi := range out.hot {
		c.do("core.DelayImpact", func() (err error) {
			out.impacts[i], _, err = sys.DelayImpact(&fr.Patterns[pi], fr.Dom)
			return
		})
	}
	if w.mcTrials > 0 {
		c.do("core.MonteCarloIRDrop", func() (err error) { out.mc, err = sys.MonteCarloIRDrop(w.mcTrials, sys.Cfg.Seed); return })
	}
	return out, c.err
}

// hottest returns the indexes of the k patterns with the highest B5 SCAP,
// hottest first (ties by index, so the choice is deterministic).
func hottest(prof []core.PatternProfile, k int) []int {
	idx := make([]int, len(prof))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return prof[idx[a]].BlockSCAPVdd[soc.B5] > prof[idx[b]].BlockSCAPVdd[soc.B5]
	})
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}

// countingWriter is the artifact sink: it counts bytes and keeps none.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}
