package scap

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"scap/internal/atpg"
	"scap/internal/core"
	"scap/internal/fault"
	"scap/internal/faultsim"
	"scap/internal/logic"
	"scap/internal/pgrid"
	"scap/internal/place"
	"scap/internal/power"
	"scap/internal/repro"
	"scap/internal/sim"
	"scap/internal/soc"
	"scap/internal/sta"
)

// benchScale keeps a full table/figure regeneration affordable inside the
// benchmark harness; `go run ./cmd/repro` uses the larger default scale.
const benchScale = 16

var (
	bOnce sync.Once
	bRun  *repro.Runner
	bErr  error
)

func benchRunner(b *testing.B) *repro.Runner {
	b.Helper()
	bOnce.Do(func() {
		bRun, bErr = repro.New(benchScale)
		if bErr != nil {
			return
		}
		// Warm the flow caches so per-experiment benches measure the
		// experiment itself, not the shared ATPG runs.
		if _, _, err := bRun.Conventional(); err != nil {
			bErr = err
			return
		}
		_, _, bErr = bRun.NewProcedure()
	})
	if bErr != nil {
		b.Fatal(bErr)
	}
	return bRun
}

// benchExperiment measures one table/figure regeneration.
func benchExperiment(b *testing.B, id string) {
	r := benchRunner(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunnerSetup measures the shared setup the experiment benches
// hide inside bOnce: building the system and running the statistical
// analysis. Allocation regressions in the build pipeline show up here.
func BenchmarkRunnerSetup(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := repro.New(benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1DesignCharacteristics(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkTable2ClockDomains(b *testing.B)          { benchExperiment(b, "table2") }
func BenchmarkTable3StatisticalIRDrop(b *testing.B)     { benchExperiment(b, "table3") }
func BenchmarkTable4CAPvsSCAP(b *testing.B)             { benchExperiment(b, "table4") }
func BenchmarkFig1Floorplan(b *testing.B)               { benchExperiment(b, "fig1") }
func BenchmarkFig2ConventionalSCAP(b *testing.B)        { benchExperiment(b, "fig2") }
func BenchmarkFig3DynamicIRDrop(b *testing.B)           { benchExperiment(b, "fig3") }
func BenchmarkFig4CoverageCurves(b *testing.B)          { benchExperiment(b, "fig4") }
func BenchmarkFig5SCAPCalculator(b *testing.B)          { benchExperiment(b, "fig5") }
func BenchmarkFig6NewProcedureSCAP(b *testing.B)        { benchExperiment(b, "fig6") }
func BenchmarkFig7DelayScaling(b *testing.B)            { benchExperiment(b, "fig7") }

// BenchmarkEndToEndFlows measures the two full pattern-generation flows on
// a freshly built system (the paper's complete methodology).
func BenchmarkEndToEndFlows(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys, err := core.Build(core.DefaultConfig(32))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.ConventionalFlow(0); err != nil {
			b.Fatal(err)
		}
		if _, err := sys.NewProcedureFlow(0); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation benches: the design choices DESIGN.md calls out ------------

// BenchmarkAblationFillStrategies compares the four don't-care fills on
// pattern count and hot-block SCAP (paper Section 3.1: fill-0 wins).
func BenchmarkAblationFillStrategies(b *testing.B) {
	r := benchRunner(b)
	sys, stat := r.Sys, r.Stat
	for _, fill := range []atpg.Fill{atpg.FillRandom, atpg.Fill0, atpg.Fill1, atpg.FillAdjacent, atpg.FillBlockAware} {
		fill := fill
		b.Run(fill.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fr, err := sys.StepFlow("ablation-"+fill.String(), 0, core.StepBlocks, fill)
				if err != nil {
					b.Fatal(err)
				}
				prof, err := sys.ProfilePatterns(fr)
				if err != nil {
					b.Fatal(err)
				}
				above := core.AboveThreshold(prof, soc.B5, stat.ThresholdMW[soc.B5])
				b.ReportMetric(float64(len(fr.Patterns)), "patterns")
				b.ReportMetric(100*float64(above)/float64(len(prof)), "%above")
				b.ReportMetric(100*fr.Counts.TestCoverage(), "%coverage")
			}
		})
	}
}

// BenchmarkAblationBlockSteps compares the paper's 3-step block ordering
// against a one-shot all-blocks fill-0 run.
func BenchmarkAblationBlockSteps(b *testing.B) {
	r := benchRunner(b)
	sys, stat := r.Sys, r.Stat
	variants := []struct {
		name  string
		steps [][]int
	}{
		{"one-shot", [][]int{{soc.B1, soc.B2, soc.B3, soc.B4, soc.B5, soc.B6}}},
		{"three-step", core.StepBlocks},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fr, err := sys.StepFlow("ablation-"+v.name, 0, v.steps, atpg.Fill0)
				if err != nil {
					b.Fatal(err)
				}
				prof, err := sys.ProfilePatterns(fr)
				if err != nil {
					b.Fatal(err)
				}
				above := core.AboveThreshold(prof, soc.B5, stat.ThresholdMW[soc.B5])
				b.ReportMetric(float64(len(fr.Patterns)), "patterns")
				b.ReportMetric(100*float64(above)/float64(len(prof)), "%above")
			}
		})
	}
}

// BenchmarkAblationCAPvsSCAPScreening counts the risky patterns the CAP
// model misses (the paper's Section 2.3 motivation for SCAP).
func BenchmarkAblationCAPvsSCAPScreening(b *testing.B) {
	r := benchRunner(b)
	_, prof, err := r.Conventional()
	if err != nil {
		b.Fatal(err)
	}
	thr := r.Stat.ThresholdMW[soc.B5]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scapAbove, capAbove := 0, 0
		for j := range prof {
			if prof[j].BlockSCAPVdd[soc.B5] > thr {
				scapAbove++
			}
			// CAP spreads the same energy over the full period.
			capEquiv := prof[j].BlockSCAPVdd[soc.B5] * prof[j].STW / r.Sys.Period
			if capEquiv > thr {
				capAbove++
			}
		}
		b.ReportMetric(float64(scapAbove), "scap-flagged")
		b.ReportMetric(float64(capAbove), "cap-flagged")
		b.ReportMetric(float64(scapAbove-capAbove), "missed-by-cap")
	}
}

// BenchmarkAblationSTWEstimate compares the measured per-pattern STW with
// the STA worst-arrival bound used as a simulation-free estimate.
func BenchmarkAblationSTWEstimate(b *testing.B) {
	r := benchRunner(b)
	_, prof, err := r.Conventional()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sta.Analyze(r.Sys.D, r.Sys.Delays, r.Sys.Tree, 0, r.Sys.Period)
		if err != nil {
			b.Fatal(err)
		}
		sum := 0.0
		for j := range prof {
			sum += prof[j].STW
		}
		mean := sum / float64(len(prof))
		b.ReportMetric(mean, "meanSTWns")
		b.ReportMetric(res.MaxArrival, "staBoundNs")
		b.ReportMetric(res.MaxArrival/mean, "bound/mean")
	}
}

// BenchmarkAblationGridResolution sweeps the IR-drop mesh resolution.
func BenchmarkAblationGridResolution(b *testing.B) {
	r := benchRunner(b)
	sys := r.Sys
	cur := power.StatCurrents(sys.D, sys.Cfg.ToggleProb, sys.Period/2)
	for i := range cur {
		cur[i] /= 2
	}
	for _, n := range []int{20, 40, 80} {
		n := n
		b.Run(map[int]string{20: "N20", 40: "N40", 80: "N80"}[n], func(b *testing.B) {
			p := sys.Cfg.Grid
			p.N = n
			g, err := pgrid.New(sys.FP, p)
			if err != nil {
				b.Fatal(err)
			}
			inj := g.InjectInstCurrents(sys.D, cur)
			if _, err := g.Factor(); err != nil { // once per grid: keep it out of the loop
				b.Fatal(err)
			}
			var sol *pgrid.Solution
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if sol, err = g.Solve(inj); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(sol.Worst*1000, "worst-mV")
		})
	}
}

// BenchmarkAblationLOCvsLOS compares the two launch mechanisms.
func BenchmarkAblationLOCvsLOS(b *testing.B) {
	r := benchRunner(b)
	sys := r.Sys
	for _, mode := range []atpg.LaunchMode{atpg.LOC, atpg.LOS} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				l := sys.NewFaultList()
				res, err := sys.ATPG(l, atpg.Options{
					Dom: 0, Mode: mode, Fill: atpg.FillRandom, Seed: 5,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(100*res.Counts.TestCoverage(), "%coverage")
				b.ReportMetric(float64(len(res.Patterns)), "patterns")
			}
		})
	}
}

// BenchmarkTimingSimulation measures the event-driven simulator alone.
func BenchmarkTimingSimulation(b *testing.B) {
	r := benchRunner(b)
	conv, _, err := r.Conventional()
	if err != nil {
		b.Fatal(err)
	}
	sys := r.Sys
	meter := power.NewMeter(sys.D)
	tm := sim.NewTiming(sys.Sim, sys.Delays, sys.Tree)
	p := &conv.Patterns[0]
	v2 := launchState(b, sys, p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		meter.Reset()
		if _, err := tm.LaunchInto(nil, p.V1, v2, p.PIs, sys.Period, meter.OnToggle); err != nil {
			b.Fatal(err)
		}
	}
}

// benchLaunchWorkload precomputes the profiling workload the launch
// benches cycle over: every pattern of the new-procedure flow (the
// low-activity fill-0 set) with its LOC v2.
func benchLaunchWorkload(b *testing.B) (*core.System, []*atpg.Pattern, [][]logic.V) {
	b.Helper()
	r := benchRunner(b)
	np, _, err := r.NewProcedure()
	if err != nil {
		b.Fatal(err)
	}
	sys := r.Sys
	pats := make([]*atpg.Pattern, len(np.Patterns))
	v2s := make([][]logic.V, len(np.Patterns))
	for i := range np.Patterns {
		pats[i] = &np.Patterns[i]
		v2s[i] = launchState(b, sys, pats[i])
	}
	return sys, pats, v2s
}

// launchState derives p's clka launch-off-capture V2 state into a fresh
// buffer.
func launchState(b *testing.B, sys *core.System, p *atpg.Pattern) []logic.V {
	b.Helper()
	nf := len(sys.D.Flops)
	v2, err := sys.LaunchStateInto(sim.NewLaunchScratch(sys.Sim), make([]logic.V, nf), make([]logic.V, nf), p.V1, p.PIs, 0)
	if err != nil {
		b.Fatal(err)
	}
	return v2
}

// BenchmarkLaunch / BenchmarkLaunchReuse are the headline pair of the
// allocation-free scratch: the same pattern stream through the fresh
// path (a new scratch + full settle per call) vs one reused per-worker
// scratch (the same full settle, zero steady-state allocations). The
// reuse path must be >= 5x cheaper in allocs/op.
func BenchmarkLaunch(b *testing.B) {
	sys, pats, v2s := benchLaunchWorkload(b)
	tm := sim.NewTiming(sys.Sim, sys.Delays, sys.Tree)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(pats)
		if _, err := tm.LaunchInto(nil, pats[k].V1, v2s[k], pats[k].PIs, sys.Period, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLaunchReuse(b *testing.B) {
	sys, pats, v2s := benchLaunchWorkload(b)
	tm := sim.NewTiming(sys.Sim, sys.Delays, sys.Tree)
	ls := sim.NewLaunchScratch(sys.Sim)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(pats)
		if _, err := tm.LaunchInto(ls, pats[k].V1, v2s[k], pats[k].PIs, sys.Period, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLaunchResim re-launches one fixed pattern (the Monte-Carlo /
// delayscale re-simulation shape): the cached baseline skips settling
// entirely, leaving only the event phase.
func BenchmarkLaunchResim(b *testing.B) {
	sys, pats, v2s := benchLaunchWorkload(b)
	tm := sim.NewTiming(sys.Sim, sys.Delays, sys.Tree)
	ls := sim.NewLaunchScratch(sys.Sim)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tm.LaunchInto(ls, pats[0].V1, v2s[0], pats[0].PIs, sys.Period, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDynamicIRDrop measures one full per-pattern IR-drop solve.
func BenchmarkDynamicIRDrop(b *testing.B) {
	r := benchRunner(b)
	conv, _, err := r.Conventional()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Sys.DynamicIRDrop(&conv.Patterns[0], 0, core.ModelSCAP); err != nil {
			b.Fatal(err)
		}
	}
}

// --- parallel pipeline benches -------------------------------------------

// benchProfilePatterns measures the whole-flow SCAP profiling loop at a
// fixed worker count; Serial (1) vs Parallel (all cores) is the headline
// speedup of the worker-pool pipeline.
func benchProfilePatterns(b *testing.B, workers int) {
	r := benchRunner(b)
	conv, _, err := r.Conventional()
	if err != nil {
		b.Fatal(err)
	}
	sys := r.Sys
	old := sys.Workers
	sys.Workers = workers
	defer func() { sys.Workers = old }()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prof, err := sys.ProfilePatterns(conv)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(prof)), "patterns")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(conv.Patterns)), "ns/pattern")
}

func BenchmarkProfilePatternsSerial(b *testing.B)   { benchProfilePatterns(b, 1) }
func BenchmarkProfilePatternsParallel(b *testing.B) { benchProfilePatterns(b, 0) }

// BenchmarkDynamicIRDropAll measures the batched pipeline over the
// whole conventional flow (serial vs all cores).
func BenchmarkDynamicIRDropAll(b *testing.B) {
	r := benchRunner(b)
	conv, _, err := r.Conventional()
	if err != nil {
		b.Fatal(err)
	}
	sys := r.Sys
	for _, v := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		v := v
		b.Run(v.name, func(b *testing.B) {
			old := sys.Workers
			sys.Workers = v.workers
			defer func() { sys.Workers = old }()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sys.DynamicIRDropAll(conv, core.ModelSCAP); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolve prices one single-injection rail solve: the default
// calibrated VDD grid under its statistical half-cycle injection, swept
// with one lane in use against the cached factorization.
func BenchmarkSolve(b *testing.B) {
	r := benchRunner(b)
	sys := r.Sys
	cur := power.StatCurrents(sys.D, sys.Cfg.ToggleProb, sys.Period/2)
	for i := range cur {
		cur[i] /= 2
	}
	g := sys.GridVDD
	inj := g.InjectInstCurrents(sys.D, cur)
	if _, err := g.Factor(); err != nil { // once per grid: keep it out of the loop
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Solve(inj); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFactor prices the one-time sparse LDLᵀ factorization that
// Solve amortizes across every solve of a grid's lifetime.
func BenchmarkFactor(b *testing.B) {
	r := benchRunner(b)
	p := r.Sys.GridVDD.P
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := pgrid.New(r.Sys.FP, p)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := g.Factor(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- grid-scale sweep -----------------------------------------------------

// gridScaleCache shares one built-and-factored grid per mesh size
// across the sweep's sub-benchmarks, so the harness's growing b.N never
// re-pays a factorization and the per-pattern numbers stay pure solves.
var gridScaleCache = struct {
	sync.Mutex
	grids map[int]*pgrid.Grid
	injs  map[int][]float64
}{grids: map[int]*pgrid.Grid{}, injs: map[int][]float64{}}

func gridScaleGrid(b *testing.B, n int) (*pgrid.Grid, []float64) {
	b.Helper()
	gridScaleCache.Lock()
	defer gridScaleCache.Unlock()
	if g, ok := gridScaleCache.grids[n]; ok {
		return g, gridScaleCache.injs[n]
	}
	p := pgrid.DefaultParams()
	p.N = n
	g, err := pgrid.New(place.NewFloorplan(), p)
	if err != nil {
		b.Fatal(err)
	}
	// A deterministic scattered injection (~1% of nodes carrying a few
	// mA each), the spatial shape per-pattern switching currents take.
	rnd := rand.New(rand.NewSource(int64(n)))
	inj := make([]float64, n*n)
	for i := 0; i < len(inj)/100+1; i++ {
		inj[rnd.Intn(len(inj))] += 1 + 4*rnd.Float64()
	}
	gridScaleCache.grids[n] = g
	gridScaleCache.injs[n] = inj
	return g, inj
}

// BenchmarkGridScale prices a single-injection solve against node count,
// n=32 through 512 (262,144 nodes), with grid_nodes as an extra metric.
// The factor is built once per size, outside the timed loop. The name
// deliberately avoids the 'Solve|Factor' bench-json regex so the timed
// bench-json pass doesn't run the sweep twice.
func BenchmarkGridScale(b *testing.B) {
	for _, n := range []int{32, 64, 128, 256, 512} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g, inj := gridScaleGrid(b, n)
			if _, err := g.Factor(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := g.Solve(inj); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n*n), "grid_nodes")
		})
	}
}

// --- packed fault-sim benches --------------------------------------------

// benchDropInputs prepares the fault-dropping workload: the full clka
// fault universe against one 64-pattern random batch on the shared
// benchScale system.
func benchDropInputs(b *testing.B) (*core.System, *fault.List, []int, *faultsim.Batch) {
	b.Helper()
	r := benchRunner(b)
	sys := r.Sys
	l := sys.NewFaultList()
	subset := l.InDomain(0)
	rnd := rand.New(rand.NewSource(9))
	v1 := make([]logic.Word, len(sys.D.Flops))
	pis := make([]logic.Word, len(sys.D.PIs))
	for i := range v1 {
		ones := rnd.Uint64()
		v1[i] = logic.Word{Zero: ^ones, One: ones}
	}
	for i := range pis {
		ones := rnd.Uint64()
		pis[i] = logic.Word{Zero: ^ones, One: ones}
	}
	return sys, l, subset, sys.FSim.GoodSim(v1, pis, 0, ^uint64(0))
}

// BenchmarkDrop measures one worker-sharded fault-dropping sweep (the
// inner loop of every ATPG flush) serial vs all cores. Committed BENCH
// numbers come from a 1-CPU VM, so the parallel variant only separates on
// multi-core hardware (see ROADMAP's bench caveat).
func BenchmarkDrop(b *testing.B) {
	sys, l, subset, bb := benchDropInputs(b)
	pristine := append([]fault.Status(nil), l.Status...)
	for _, v := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		v := v
		b.Run(v.name, func(b *testing.B) {
			old := sys.FSim.Workers
			sys.FSim.Workers = v.workers
			defer func() { sys.FSim.Workers = old }()
			b.ReportAllocs()
			b.ResetTimer()
			dropped := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(l.Status, pristine)
				b.StartTimer()
				dropped = sys.FSim.Drop(l, subset, bb, 0)
			}
			b.ReportMetric(float64(len(subset)), "faults")
			b.ReportMetric(float64(dropped), "dropped")
		})
	}
}

// BenchmarkDetectionCounts measures the n-detect accounting sweep (no
// status mutation, so no per-iteration reset).
func BenchmarkDetectionCounts(b *testing.B) {
	sys, l, subset, bb := benchDropInputs(b)
	counts := make([]int, len(l.Faults))
	for _, v := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		v := v
		b.Run(v.name, func(b *testing.B) {
			old := sys.FSim.Workers
			sys.FSim.Workers = v.workers
			defer func() { sys.FSim.Workers = old }()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys.FSim.DetectionCounts(l, subset, bb, counts)
			}
		})
	}
}

// BenchmarkGradeFaultSim is the committed evidence for the 64-slot
// batching win: fault-grade the same 64 patterns against the domain's
// fault universe one pattern per sweep (a single-slot GoodSim plus a
// detection sweep each, the shape the old grading path ran) vs all 64
// packed into one good-machine batch and one sweep. Runs single-core
// (workers=1); ns/pattern is the comparable metric.
func BenchmarkGradeFaultSim(b *testing.B) {
	r := benchRunner(b)
	conv, _, err := r.Conventional()
	if err != nil {
		b.Fatal(err)
	}
	sys := r.Sys
	fs := sys.FSim
	l := conv.Faults
	d := sys.D
	subset := conv.Subset
	n := len(conv.Patterns)
	if n > 64 {
		n = 64
	}
	oldW := fs.Workers
	fs.Workers = 1
	defer func() { fs.Workers = oldW }()
	counts := make([]int, len(l.Faults))

	b.Run("batch1", func(b *testing.B) {
		v1W := make([]logic.Word, len(d.Flops))
		piW := make([]logic.Word, len(d.PIs))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for p := 0; p < n; p++ {
				pat := &conv.Patterns[p]
				for j := range v1W {
					v1W[j] = logic.Splat(pat.V1[j])
				}
				for j := range piW {
					piW[j] = logic.Splat(pat.PIs[j])
				}
				bb := fs.GoodSim(v1W, piW, conv.Dom, 1)
				fs.DetectionCounts(l, subset, bb, counts)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/pattern")
	})
	b.Run("batch64", func(b *testing.B) {
		slotV1 := make([][]logic.V, n)
		slotPI := make([][]logic.V, n)
		for p := 0; p < n; p++ {
			slotV1[p] = conv.Patterns[p].V1
			slotPI[p] = conv.Patterns[p].PIs
		}
		var v1W, piW []logic.Word
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v1W = logic.PackSlots(v1W, slotV1)
			piW = logic.PackSlots(piW, slotPI)
			bb := fs.GoodSim(v1W, piW, conv.Dom, logic.ValidMask(n))
			fs.DetectionCounts(l, subset, bb, counts)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/pattern")
	})
}

// BenchmarkGradeDetections measures the full batched grading engine
// (timing launches included) over the conventional flow.
func BenchmarkGradeDetections(b *testing.B) {
	r := benchRunner(b)
	conv, _, err := r.Conventional()
	if err != nil {
		b.Fatal(err)
	}
	sys := r.Sys
	for _, v := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		v := v
		b.Run(v.name, func(b *testing.B) {
			old := sys.Workers
			sys.Workers = v.workers
			defer func() { sys.Workers = old }()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := sys.GradeDetections(conv, 0)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(len(rep.Grades)), "grades")
			}
		})
	}
}

// --- ATPG generation benches ---------------------------------------------

// BenchmarkATPGGenerate prices one deterministic generation run (every
// clka fault, dynamic compaction, random fill) serially and with the
// epoch-sharded generator on all cores. Both produce bit-identical
// pattern sets (TestRunShardedBitIdentical proves it), so ns/fault is the
// sharding comparison and waves/pattern and backtracks are exact work
// counts for any host.
func BenchmarkATPGGenerate(b *testing.B) {
	r := benchRunner(b)
	sys := r.Sys
	for _, v := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"sharded", 0},
	} {
		v := v
		b.Run(v.name, func(b *testing.B) {
			old := sys.Workers
			sys.Workers = v.workers
			defer func() { sys.Workers = old }()
			b.ReportAllocs()
			b.ResetTimer()
			var res *atpg.Result
			targeted := 0
			for i := 0; i < b.N; i++ {
				l := sys.NewFaultList()
				var err error
				res, err = sys.ATPG(l, atpg.Options{Dom: 0, Fill: atpg.FillRandom, Seed: 5})
				if err != nil {
					b.Fatal(err)
				}
				targeted = res.Counts.Total
			}
			g := res.Gen
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(targeted), "ns/fault")
			b.ReportMetric(float64(g.Waves)/float64(len(res.Patterns)), "waves/pattern")
			b.ReportMetric(float64(g.Backtracks), "backtracks")
			b.ReportMetric(float64(len(res.Patterns)), "patterns")
		})
	}
}

// BenchmarkScreenPatterns prices the packed zero-delay pre-screen; its
// ns/pattern against BenchmarkProfilePatternsSerial's per-pattern cost is
// the screen-then-verify headline (the screen must be >= 10x cheaper).
func BenchmarkScreenPatterns(b *testing.B) {
	r := benchRunner(b)
	conv, _, err := r.Conventional()
	if err != nil {
		b.Fatal(err)
	}
	sys := r.Sys
	old := sys.Workers
	sys.Workers = 1
	defer func() { sys.Workers = old }()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		screens, err := sys.ScreenPatterns(conv)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(screens)), "patterns")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(conv.Patterns)), "ns/pattern")
}
