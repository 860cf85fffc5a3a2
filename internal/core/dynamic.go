package core

import (
	"fmt"
	"math"

	"scap/internal/atpg"
	"scap/internal/delayscale"
	"scap/internal/netlist"
	"scap/internal/obs"
	"scap/internal/parallel"
	"scap/internal/pgrid"
	"scap/internal/power"
	"scap/internal/sim"
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
	"vdd_mv", "vss_mv", "stw_ns")

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
	dyn, _, err := sys.dynamicIRDrop(&pool[0], p, dom, model)
	return dyn, err
}

// dynamicIRDrop is DynamicIRDrop on a caller-supplied worker scratch.
// It also returns the pattern's launch Result, which lives in the
// scratch: DelayImpact takes that launch as its nominal run.
func (sys *System) dynamicIRDrop(ps *profScratch, p *atpg.Pattern, dom int, model PowerModel) (*DynamicIR, *sim.Result, error) {
	defer obs.StartSpan("dynamic-irdrop").End()
	d := sys.D
	ps.meter.Reset()
	res, err := ps.launch(sys, p.V1, p.PIs, dom, ps.toggle)
	if err != nil {
		return nil, nil, fmt.Errorf("core: dynamic sim: %w", err)
	}
	prof := ps.meter.Report(sys.Period)
	window := sys.Period
	if model == ModelSCAP {
		window = res.STW
	}
	out := &DynamicIR{Model: model, Profile: prof, STW: res.STW}

	// One current buffer serves both rail solves in turn.
	var cur []float64
	solve := func(g *pgrid.Grid, energy []float64) (*pgrid.Solution, []float64, error) {
		cur = power.InstCurrentsInto(cur, d, energy, window)
		sol, err := g.Solve(g.InjectInstCurrents(d, cur))
		if err != nil {
			return nil, nil, fmt.Errorf("core: dynamic solve: %w", err)
		}
		return sol, sol.WorstPerBlock(g, d.NumBlocks), nil
	}
	if out.SolVDD, out.WorstVDD, err = solve(sys.GridVDD, prof.InstEnergyVDD); err != nil {
		return nil, nil, err
	}
	if out.SolVSS, out.WorstVSS, err = solve(sys.GridVSS, prof.InstEnergyVSS); err != nil {
		return nil, nil, err
	}
	return out, res, nil
}

// IRDropSummary is one pattern's result from the batched dynamic
// analysis: the pattern's SCAP profile, from the same launch, and the
// worst node drop per block (chip entry at index NumBlocks) on each
// rail, volts. The full node-by-node maps of DynamicIR are deliberately
// not kept — screening a whole pattern set only consumes the per-block
// extremes, and dropping the maps is what lets each worker recycle its
// lane storage.
type IRDropSummary struct {
	PatternProfile
	Model    PowerModel
	WorstVDD []float64
	WorstVSS []float64
}

// irScratch is one worker's solver state for DynamicIRDropAll: the
// buffer of switched instances and a lane batch per rail.
type irScratch struct {
	switched []netlist.InstID
	vdd, vss *pgrid.Batch
}

// DynamicIRDropAll runs the dynamic per-pattern IR-drop analysis over a
// whole flow, fanned across sys.Workers workers (0 = all cores, 1 = the
// exact serial path). Each pattern is launched once, and each summary
// carries the profile ProfilePatterns would return for it.
//
// Patterns go in groups of pgrid.Lanes by index (4g…4g+3): a worker
// profiles a group's patterns one by one, writes each one's currents
// into its lane of the rail batches, and sweeps each rail once for the
// whole group. Only the instances the meter saw switch carry energy, so
// only they are converted (power.InstCurrentsInto's expression) and
// injected, in ascending InstID order: the order, and the skipped zero
// currents, of a dense injection. Every lane is therefore bit-identical
// to a single solve of its pattern, and groups do not depend on the
// worker that runs them, so results are bit-identical for any worker
// count.
func (sys *System) DynamicIRDropAll(fr *FlowResult, model PowerModel) ([]IRDropSummary, error) {
	defer obs.StartSpan("dynamic-irdrop-all").End()
	n := len(fr.Patterns)
	out := make([]IRDropSummary, n)
	if n == 0 {
		return out, nil
	}
	groups := (n + pgrid.Lanes - 1) / pgrid.Lanes
	workers := min(parallel.Resolve(sys.Workers), groups)
	pool := sys.profPool(workers)
	// Building the batches factors both rails here rather than inside
	// the first group, so the one-time cost is not attributed to a
	// worker's patterns.
	scratch := make([]irScratch, workers)
	for w := range scratch {
		sc := &scratch[w]
		var err error
		if sc.vdd, err = sys.GridVDD.NewBatch(sys.D); err != nil {
			return nil, err
		}
		if sc.vss, err = sys.GridVSS.NewBatch(sys.D); err != nil {
			return nil, err
		}
	}
	nb := sys.D.NumBlocks
	vdd := sys.D.Lib.VDD

	// eval simulates group g's patterns on worker w's scratch and sweeps
	// both rails once for all of them.
	eval := func(w, g int) error {
		ps, sc := &pool[w], &scratch[w]
		lo, hi := g*pgrid.Lanes, min((g+1)*pgrid.Lanes, n)
		sc.vdd.Reset()
		sc.vss.Reset()
		for i := lo; i < hi; i++ {
			res, err := ps.profile(sys, fr, i, &out[i].PatternProfile)
			if err != nil {
				return fmt.Errorf("core: dynamic sim pattern %d: %w", i, err)
			}
			window := sys.Period
			if model == ModelSCAP {
				window = res.STW
			}
			out[i].Model = model
			if window <= 0 {
				continue // no window, no current
			}
			eVDD, eVSS := ps.meter.RawInstEnergyVDD(), ps.meter.RawInstEnergyVSS()
			sc.switched = ps.meter.AppendSwitched(sc.switched[:0])
			for _, id := range sc.switched {
				sc.vdd.AddInst(i-lo, id, eVDD[id]/(vdd*window)*1e-3)
				sc.vss.AddInst(i-lo, id, eVSS[id]/(vdd*window)*1e-3)
			}
		}
		sc.vdd.Sweep(hi - lo)
		sc.vss.Sweep(hi - lo)
		for i := lo; i < hi; i++ {
			sum := &out[i]
			sum.WorstVDD = sc.vdd.WorstPerBlock(i-lo, nb)
			sum.WorstVSS = sc.vss.WorstPerBlock(i-lo, nb)
			vdd, vss := sum.WorstVDD[nb], sum.WorstVSS[nb]
			tkIRDrop.Record(int64(i), int64(math.Round((vdd+vss)*1e9)), model.String(),
				vdd*1e3, vss*1e3, sum.STW)
		}
		return nil
	}
	if err := parallel.For(workers, groups, eval); err != nil {
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
// comparison with cell and clock delays scaled by the local voltage
// collapse. It launches the pattern twice: the metered launch of the
// IR-drop analysis doubles as the nominal run, and the derated run is
// the second.
func (sys *System) DelayImpact(p *atpg.Pattern, dom int) (*delayscale.Impact, *DynamicIR, error) {
	pool := sys.profPool(1)
	ps := &pool[0]
	dyn, nom, err := sys.dynamicIRDrop(ps, p, dom, ModelSCAP)
	if err != nil {
		return nil, nil, err
	}
	resim := obs.StartSpan("resimulation")
	defer resim.End()
	// The metered launch is the nominal run, and ps.v2 still holds its
	// V2 state. The scratch still holds the pattern's settled baseline,
	// which is delay- and clock-independent, so the derated launch on
	// the same scratch skips its settle.
	imp, err := delayscale.Compare(sys.Sim, sys.Delays, sys.Tree,
		sys.GridVDD, dyn.CombinedDrop(), sys.D.Lib.KVolt, nom,
		p.V1, ps.v2, p.PIs, sys.Period, ps.ls)
	if err != nil {
		return nil, nil, err
	}
	return imp, dyn, nil
}
