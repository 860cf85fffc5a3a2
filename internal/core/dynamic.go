package core

import (
	"fmt"
	"math"

	"scap/internal/atpg"
	"scap/internal/delayscale"
	"scap/internal/obs"
	"scap/internal/parallel"
	"scap/internal/pgrid"
	"scap/internal/power"
)

// PowerModel selects the averaging window of the dynamic analysis.
type PowerModel uint8

// Power models (Table 4 compares them).
const (
	// ModelCAP averages the pattern's switching over the full tester cycle.
	ModelCAP PowerModel = iota
	// ModelSCAP averages over the switching time frame window only —
	// the paper's model, which roughly doubles both power and IR-drop.
	ModelSCAP
)

// String names the model.
func (m PowerModel) String() string {
	if m == ModelCAP {
		return "CAP"
	}
	return "SCAP"
}

// tkIRDrop is the per-pattern IR-drop attribution table: the patterns
// whose batched dynamic analysis produced the deepest combined chip
// supply collapse (worst VDD sag + worst VSS bounce, in integer
// nanovolts). Solved drops are exact deterministic products of the
// pattern, so the table is bit-identical for any worker count.
var tkIRDrop = obs.NewTopK("core.irdrop_hotspots", 16, "drop_nv",
	"vdd_mv", "vss_mv", "stw_ns", "iter_vdd", "iter_vss")

// DynamicIR is one pattern's dynamic IR-drop analysis.
type DynamicIR struct {
	Model   PowerModel
	Profile *power.Profile
	STW     float64
	// SolVDD/SolVSS are the solved rail drops; WorstVDD/WorstVSS the worst
	// node drop per block plus a chip entry, volts.
	SolVDD, SolVSS     *pgrid.Solution
	WorstVDD, WorstVSS []float64
}

// DynamicIRDrop simulates one pattern with full timing, captures its
// switching energy (the VCD-less PLI path), converts it to per-instance
// currents over the model's window, and solves both rail meshes.
func (sys *System) DynamicIRDrop(p *atpg.Pattern, dom int, model PowerModel) (*DynamicIR, error) {
	pool := sys.profPool(1)
	return sys.dynamicIRDrop(&pool[0], p, dom, model)
}

// dynamicIRDrop is DynamicIRDrop on a caller-supplied worker scratch,
// so composite analyses (DelayImpact) can keep reusing the scratch —
// and its cached settled baseline — for follow-up launches of the same
// pattern.
func (sys *System) dynamicIRDrop(ps *profScratch, p *atpg.Pattern, dom int, model PowerModel) (*DynamicIR, error) {
	defer obs.StartSpan("dynamic-irdrop").End()
	d := sys.D
	ps.meter.Reset()
	res, err := ps.launch(sys, p.V1, p.PIs, dom, ps.toggle)
	if err != nil {
		return nil, fmt.Errorf("core: dynamic sim: %w", err)
	}
	prof := ps.meter.Report(sys.Period)
	window := sys.Period
	if model == ModelSCAP {
		window = res.STW
	}
	out := &DynamicIR{Model: model, Profile: prof, STW: res.STW}

	// One current and one injection buffer serve both rail solves in
	// turn (each rail keeps its own Solution, but the intermediate
	// vectors never outlive a solve).
	var cur, inj []float64
	solve := func(g *pgrid.Grid, energy []float64) (*pgrid.Solution, []float64, error) {
		cur = power.InstCurrentsInto(cur, d, energy, window)
		inj = g.InjectInstCurrentsInto(inj, d, cur)
		sol, err := sys.solveRail(g, inj, nil, nil, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("core: dynamic solve: %w", err)
		}
		return sol, sol.WorstPerBlock(g, d.NumBlocks), nil
	}
	if out.SolVDD, out.WorstVDD, err = solve(sys.GridVDD, prof.InstEnergyVDD); err != nil {
		return nil, err
	}
	if out.SolVSS, out.WorstVSS, err = solve(sys.GridVSS, prof.InstEnergyVSS); err != nil {
		return nil, err
	}
	return out, nil
}

// IRDropSummary is one pattern's result from the batched dynamic
// analysis: the worst node drop per block (chip entry at index
// NumBlocks) on each rail, volts, plus the SOR effort that produced it.
// The full node-by-node maps of DynamicIR are deliberately not kept —
// screening a whole pattern set only consumes the per-block extremes,
// and dropping the maps is what lets each worker recycle its solver
// buffers.
type IRDropSummary struct {
	Index            int
	Model            PowerModel
	STW              float64
	WorstVDD         []float64
	WorstVSS         []float64
	IterVDD, IterVSS int
}

// irScratch is one worker's solver state for DynamicIRDropAll: reusable
// current/injection vectors, a recycled Solution per rail, and the
// factored solver's forward-substitution scratch.
type irScratch struct {
	cur, inj       []float64
	solVDD, solVSS *pgrid.Solution
	fs             pgrid.SolveScratch
}

// DynamicIRDropAll runs the dynamic per-pattern IR-drop analysis over a
// whole flow, fanned across sys.Workers workers (0 = all cores, 1 = the
// exact serial path).
//
// Under the default factored solver every pattern is two exact banded
// triangular sweeps against the grid's shared read-only factorization,
// so all patterns fan out immediately and results are bit-identical for
// any worker count by construction. Under the SOR fallback, pattern 0
// is solved cold first and its rail solutions become the shared
// warm-start guess for every remaining pattern — per-pattern injections
// resemble each other, so SOR converges in a fraction of the cold
// iteration count, and because the guess is the same for every pattern
// the results are again identical for any worker count (each solve
// still runs to the grid's own tolerance).
func (sys *System) DynamicIRDropAll(fr *FlowResult, model PowerModel) ([]IRDropSummary, error) {
	defer obs.StartSpan("dynamic-irdrop-all").End()
	n := len(fr.Patterns)
	out := make([]IRDropSummary, n)
	if n == 0 {
		return out, nil
	}
	workers := parallel.Resolve(sys.Workers)
	if workers > n {
		workers = n
	}
	pool := sys.profPool(workers)
	scratch := make([]irScratch, workers)
	// Each meter resets before its next pattern, so its last pattern's
	// toggles are still unflushed when the pool is dropped.
	defer func() {
		for w := range pool {
			pool[w].meter.FlushToggles()
		}
	}()

	// eval simulates pattern i on worker w's scratch and solves both
	// rails warm-started from the given guesses (nil = cold).
	eval := func(w, i int, warmVDD, warmVSS []float64) error {
		p := &fr.Patterns[i]
		ps, sc := &pool[w], &scratch[w]
		ps.meter.Reset()
		res, err := ps.launch(sys, p.V1, p.PIs, fr.Dom, ps.toggle)
		if err != nil {
			return fmt.Errorf("core: dynamic sim pattern %d: %w", i, err)
		}
		window := sys.Period
		if model == ModelSCAP {
			window = res.STW
		}
		sum := &out[i]
		sum.Index, sum.Model, sum.STW = i, model, res.STW

		solve := func(g *pgrid.Grid, energy, warm []float64, reuse *pgrid.Solution) (*pgrid.Solution, []float64, error) {
			sc.cur = power.InstCurrentsInto(sc.cur, sys.D, energy, window)
			sc.inj = g.InjectInstCurrentsInto(sc.inj, sys.D, sc.cur)
			sol, err := sys.solveRail(g, sc.inj, warm, reuse, &sc.fs)
			if err != nil {
				return nil, nil, fmt.Errorf("core: dynamic solve pattern %d: %w", i, err)
			}
			return sol, sol.WorstPerBlock(g, sys.D.NumBlocks), nil
		}
		var sol *pgrid.Solution
		if sol, sum.WorstVDD, err = solve(sys.GridVDD, ps.meter.RawInstEnergyVDD(), warmVDD, sc.solVDD); err != nil {
			return err
		}
		sc.solVDD, sum.IterVDD = sol, sol.Iterations
		if sol, sum.WorstVSS, err = solve(sys.GridVSS, ps.meter.RawInstEnergyVSS(), warmVSS, sc.solVSS); err != nil {
			return err
		}
		sc.solVSS, sum.IterVSS = sol, sol.Iterations
		nb := sys.D.NumBlocks
		vdd, vss := sum.WorstVDD[nb], sum.WorstVSS[nb]
		tkIRDrop.Record(int64(i), int64(math.Round((vdd+vss)*1e9)), model.String(),
			vdd*1e3, vss*1e3, sum.STW, float64(sum.IterVDD), float64(sum.IterVSS))
		return nil
	}

	if sys.Solver != SolverSOR {
		// Direct paths (banded or sparse): the shared factorization makes
		// every solve exact and independent, so all patterns fan out at
		// once. Factor both rails up front rather than inside the first
		// solves, so the one-time cost is not attributed to a worker's
		// pattern.
		if err := sys.prefactor(sys.GridVDD); err != nil {
			return nil, err
		}
		if err := sys.prefactor(sys.GridVSS); err != nil {
			return nil, err
		}
		if err := parallel.For(workers, n, func(w, i int) error {
			return eval(w, i, nil, nil)
		}); err != nil {
			return nil, err
		}
		return out, nil
	}

	// SOR fallback. Cold baseline: pattern 0 on worker 0, then copy its
	// drops out of the recyclable scratch as the shared read-only warm
	// guess.
	if err := eval(0, 0, nil, nil); err != nil {
		return nil, err
	}
	warmVDD := append([]float64(nil), scratch[0].solVDD.Drop...)
	warmVSS := append([]float64(nil), scratch[0].solVSS.Drop...)
	err := parallel.For(workers, n-1, func(w, i int) error {
		return eval(w, i+1, warmVDD, warmVSS)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// CombinedDrop returns a node-wise sum of the two rails' drops: the
// effective supply collapse a cell sees (VDD sag plus ground bounce),
// which is what scales its delay.
func (dyn *DynamicIR) CombinedDrop() *pgrid.Solution {
	n := dyn.SolVDD.N
	sum := &pgrid.Solution{N: n, Drop: make([]float64, n*n)}
	for i := range sum.Drop {
		v := dyn.SolVDD.Drop[i] + dyn.SolVSS.Drop[i]
		sum.Drop[i] = v
		if v > sum.Worst {
			sum.Worst = v
		}
	}
	return sum
}

// DelayImpact runs the paper's Figure 7 experiment on one pattern: dynamic
// IR-drop with the SCAP window, then a nominal-vs-derated timing
// re-simulation with cell and clock delays scaled by the local voltage
// collapse.
func (sys *System) DelayImpact(p *atpg.Pattern, dom int) (*delayscale.Impact, *DynamicIR, error) {
	pool := sys.profPool(1)
	ps := &pool[0]
	dyn, err := sys.dynamicIRDrop(ps, p, dom, ModelSCAP)
	if err != nil {
		return nil, nil, err
	}
	resim := obs.StartSpan("resimulation")
	defer resim.End()
	// The scratch still holds this pattern's settled baseline (the
	// launch restored it), so the V2 re-derivation and both Compare
	// launches are cone-cache hits: the baseline is delay- and
	// clock-independent, which is exactly why the derated run may share
	// the scratch.
	v2, err := sys.LaunchStateInto(ps.ls, ps.v2, ps.capBuf, p.V1, p.PIs, dom)
	if err != nil {
		return nil, nil, err
	}
	imp, err := delayscale.Compare(sys.Sim, sys.Delays, sys.Tree,
		sys.GridVDD, dyn.CombinedDrop(), sys.D.Lib.KVolt,
		p.V1, v2, p.PIs, sys.Period, ps.ls)
	if err != nil {
		return nil, nil, err
	}
	return imp, dyn, nil
}
