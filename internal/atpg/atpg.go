package atpg

import (
	"fmt"

	"scap/internal/fault"
	"scap/internal/faultsim"
	"scap/internal/logic"
	"scap/internal/netlist"
	"scap/internal/obs"
	"scap/internal/parallel"
	"scap/internal/scan"
)

// ATPG observability, flushed once per Run. The implication counters come
// from the per-engine genStats sums, so they are identical for any worker
// count.
var (
	cATPGRuns        = obs.NewCounter("atpg.runs")
	cATPGPatterns    = obs.NewCounter("atpg.patterns")
	cGenWaves        = obs.NewCounter("atpg.implication_waves")
	cGenBacktracks   = obs.NewCounter("atpg.backtracks")
	cGenGateEvals    = obs.NewCounter("atpg.gate_evals")
	cGenAbortedWaves = obs.NewCounter("atpg.aborted_waves")
)

// tkFaults is the per-fault attribution table: the faults whose PODEM
// search (generation + this lane's compaction attempts) burned the most
// implication waves. Cost and fields are engine-work deltas, which are
// deterministic per (fault, status snapshot) — so the table is
// bit-identical for any fs.Workers value. Recorded in the serial merge.
var tkFaults = obs.NewTopK("atpg.fault_hotspots", 16, "waves",
	"backtracks", "decisions", "secondaries", "pattern")

func init() {
	obs.RegisterDerived("atpg.waves_per_pattern", func(c map[string]int64) (float64, bool) {
		if c["atpg.patterns"] <= 0 {
			return 0, false
		}
		return float64(c["atpg.implication_waves"]) / float64(c["atpg.patterns"]), true
	})
}

// Options configures one ATPG run.
type Options struct {
	// Dom is the target clock domain, an index into the design's
	// Domains; patterns launch and capture only its flops (the paper
	// generates transition patterns per clock domain).
	Dom int
	// Mode selects launch-off-capture (default) or launch-off-shift.
	Mode LaunchMode
	// Fill is the don't-care fill strategy.
	Fill Fill
	// Seed drives backtrace tie-breaking and random fill.
	Seed int64
	// BacktrackLimit aborts a fault after this many backtracks (default 64).
	BacktrackLimit int
	// MaxPatterns stops the run after this many patterns (0 = unlimited).
	MaxPatterns int
	// Blocks restricts the targeted faults to the given floorplan blocks
	// (nil targets every block) — the knob behind the paper's Step 1/2/3
	// procedure.
	Blocks []int
	// PatternBase offsets the pattern indexes recorded in the fault list's
	// DetectedBy, so multi-step flows keep a global numbering.
	PatternBase int
	// Compaction bounds dynamic compaction: the maximum number of
	// secondary faults merged into one pattern (0 uses the default of 32,
	// negative disables compaction). The paper notes conventional ATPG
	// "targets as many faults per pattern as possible".
	Compaction int
	// CareBudget stops compaction once the cube holds this many state care
	// bits (0 = unlimited). Low-power flows use it to keep the per-pattern
	// care-bit *density* scale-invariant: at reduced design scale an
	// unbounded cube would cover a large fraction of a small block and
	// defeat the fill-0 quieting that full-size designs get for free.
	CareBudget int
}

// Pattern is one fully specified launch-off-capture (or -shift) test:
// the scan-in state V1 and the constant primary-input values. V2 derives
// from V1 at launch.
type Pattern struct {
	V1  []logic.V // per flop, design flop order
	PIs []logic.V // per primary input
	// Target is the fault index the pattern was generated for.
	Target int
	// Secondaries lists further fault indexes merged into the pattern by
	// dynamic compaction (each proven detected by construction).
	Secondaries []int
	// Step tags the generation step in multi-step flows (0-based).
	Step int
}

// GenStats tallies implication-engine work over one Run. The totals are
// per-fault additive sums over all worker engines, so they are
// deterministic and independent of the worker count.
type GenStats struct {
	// Waves counts two-frame implication waves.
	Waves int64
	// Decisions and Backtracks mirror the classical PODEM effort metrics.
	Decisions  int64
	Backtracks int64
	// GateEvals counts the gates the search's waves evaluate, the
	// fault-injection waves included.
	GateEvals int64
	// AbortedWaves counts the waves of the searches, primary or
	// secondary, that hit the backtrack limit.
	AbortedWaves int64
}

// Result is the outcome of one ATPG run.
type Result struct {
	Dom      int
	Mode     LaunchMode
	Fill     Fill
	Patterns []Pattern
	// Subset is the fault-index set that was targeted.
	Subset []int
	// Counts is the subset's status tally after the run.
	Counts fault.Counts
	// Gen aggregates implication-engine work (worker-independent).
	Gen GenStats
}

// Run generates transition-fault patterns for the selected faults with
// PODEM, fills don't-cares, and fault-simulates each 64-pattern batch to
// drop collaterally detected faults. The fault list l is updated in place
// (statuses, detecting pattern indexes). Generation and the fault-dropping
// sweeps both fan out across fs.Workers (0 = all cores, 1 = serial); the
// pattern set is bit-identical for any value.
func Run(fs *faultsim.Sim, l *fault.List, sc *scan.Scan, opts Options) (*Result, error) {
	defer obs.StartSpan("atpg").End()
	d := l.D
	if opts.Dom < 0 || opts.Dom >= len(d.Domains) {
		return nil, fmt.Errorf("atpg: domain %d out of range [0, %d)", opts.Dom, len(d.Domains))
	}
	for _, b := range opts.Blocks {
		if b < 0 || b >= d.NumBlocks {
			return nil, fmt.Errorf("atpg: block %d out of range [0, %d)", b, d.NumBlocks)
		}
	}
	if opts.BacktrackLimit <= 0 {
		opts.BacktrackLimit = 64
	}
	var prefer blockSet // nil: no block restriction
	if opts.Blocks != nil {
		prefer = newBlockSet(d.NumBlocks, opts.Blocks)
	}
	subset := l.InDomain(opts.Dom)
	if prefer != nil {
		filtered := subset[:0:0]
		for _, fi := range subset {
			if prefer.has(l.Faults[fi].Block) {
				filtered = append(filtered, fi)
			}
		}
		subset = filtered
	}

	// Faults on primary-input nets cannot launch a transition: the paper's
	// flow holds PIs constant across V1/V2 (low-cost tester).
	for _, fi := range subset {
		if l.Status[fi] == fault.Undetected && d.Nets[l.Faults[fi].Net].PI >= 0 {
			l.Status[fi] = fault.Untestable
		}
	}

	cfg := runConfig(d, sc, opts, prefer)
	eng, err := newEngine(fs.Simulator(), cfg)
	if err != nil {
		return nil, fmt.Errorf("atpg: %w", err)
	}
	fil := newFiller(d, sc, opts.Fill, opts.Seed+1)
	fil.targetBlocks = prefer // FillBlockAware randomizes only these

	res := &Result{Dom: opts.Dom, Mode: opts.Mode, Fill: opts.Fill, Subset: subset}

	maxSec := opts.Compaction
	if maxSec == 0 {
		maxSec = 32
	}

	// Epoch-based sharded generation. Each epoch snapshots the next (up
	// to) 64 undetected primaries, generates them in parallel on
	// per-worker cloned engines, merges serially in primary order, then
	// fault-simulates the epoch's patterns as one packed batch and drops
	// collateral detections before the next epoch is selected. Because
	// the epoch window is a constant (one batch word, not a function of
	// the worker count), the primaries each worker sees, the statuses
	// frozen during the parallel section and the merge order are all
	// worker-independent — the pattern set is bit-identical for
	// -workers 1, 2 or 64.
	genW := parallel.Resolve(fs.Workers)
	engines := []*engine{eng}

	var (
		slotV1, slotPI [][]logic.V
		v1W, piW       []logic.Word   // packed-batch buffers, reused across epochs
		batch          faultsim.Batch // the epoch's good machine, refilled each epoch
		prim           []int          // subset positions targeted this epoch
		outs           []genOut
	)
	cursor := 0
	done := false
	for !done {
		prim = prim[:0]
		for ; cursor < len(subset) && len(prim) < 64; cursor++ {
			if l.Status[subset[cursor]] == fault.Undetected {
				prim = append(prim, cursor)
			}
		}
		if len(prim) == 0 {
			break
		}
		// Secondaries for dynamic compaction are scanned strictly past
		// the epoch window (scanBase), in per-primary strided lanes, so
		// no two primaries claim the same secondary and no primary is
		// claimed mid-epoch.
		scanBase := cursor
		w := genW
		if w > len(prim) {
			w = len(prim)
		}
		for len(engines) < w {
			engines = append(engines, eng.clone())
		}
		if cap(outs) < len(prim) {
			outs = make([]genOut, len(prim))
		}
		outs = outs[:len(prim)]
		nLanes := len(prim)
		// Fault statuses are frozen for the whole parallel section (all
		// writes happen in the serial merge below), so the concurrent
		// reads in genOne are race-free and snapshot-consistent.
		parallel.For(w, nLanes, func(wk, i int) error {
			outs[i] = genOne(engines[wk], l, subset, prim[i], i, nLanes, scanBase, maxSec, opts.CareBudget)
			return nil
		})

		// Serial merge in primary order: statuses, fill (whose rng
		// consumes in pattern order), pattern numbering and the packed
		// drop are all deterministic here.
		slotV1, slotPI = slotV1[:0], slotPI[:0]
		epochBase := opts.PatternBase + len(res.Patterns)
		for i := range outs {
			po := &outs[i]
			fi := subset[prim[i]]
			recordFault := func(outcome string, patIdx int) {
				tkFaults.Record(int64(fi), po.stats.waves, outcome,
					float64(po.stats.backtracks), float64(po.stats.decisions),
					float64(len(po.secondaries)), float64(patIdx))
			}
			if l.Status[fi] != fault.Undetected {
				// Generated, then detected as an earlier primary's
				// secondary within this same merge — the work is recorded
				// as collateral.
				recordFault("collateral", -1)
				continue
			}
			switch po.disp {
			case genAborted:
				l.Status[fi] = fault.Aborted
				recordFault("aborted", -1)
				continue
			case genUntestable:
				l.Status[fi] = fault.Untestable
				recordFault("untestable", -1)
				continue
			}
			// Lanes are disjoint, so secondaries are distinct across the
			// epoch; the filter is a cheap invariant guard.
			kept := po.secondaries[:0]
			for _, fj := range po.secondaries {
				if l.Status[fj] == fault.Undetected {
					kept = append(kept, fj)
				}
			}
			v1, pis := fil.Expand(po.cube)
			patIdx := opts.PatternBase + len(res.Patterns)
			recordFault("detected", patIdx)
			res.Patterns = append(res.Patterns, Pattern{
				V1: v1, PIs: pis, Target: fi, Secondaries: kept,
			})
			l.MarkDetected(fi, patIdx)
			for _, fj := range kept {
				l.MarkDetected(fj, patIdx)
			}
			slotV1 = append(slotV1, v1)
			slotPI = append(slotPI, pis)
			if opts.MaxPatterns > 0 && len(res.Patterns) >= opts.MaxPatterns {
				done = true
				break
			}
		}
		// Drop collaterally detected faults against this epoch's batch.
		if len(slotV1) > 0 {
			v1W = logic.PackSlots(v1W, slotV1)
			piW = logic.PackSlots(piW, slotPI)
			valid := logic.ValidMask(len(slotV1))
			if opts.Mode == LOS {
				fs.GoodSimShiftInto(&batch, v1W, piW, opts.Dom, valid, cfg.shiftPrev)
			} else {
				fs.GoodSimInto(&batch, v1W, piW, opts.Dom, valid)
			}
			fs.Drop(l, subset, &batch, epochBase)
		}
	}

	for _, en := range engines {
		res.Gen.Waves += en.stats.waves
		res.Gen.Decisions += en.stats.decisions
		res.Gen.Backtracks += en.stats.backtracks
		res.Gen.GateEvals += en.stats.gateEvals
		res.Gen.AbortedWaves += en.stats.abortedWaves
	}

	cATPGRuns.Add(1)
	cATPGPatterns.Add(int64(len(res.Patterns)))
	cGenWaves.Add(res.Gen.Waves)
	cGenBacktracks.Add(res.Gen.Backtracks)
	cGenGateEvals.Add(res.Gen.GateEvals)
	cGenAbortedWaves.Add(res.Gen.AbortedWaves)
	res.Counts = l.CountOf(subset)
	return res, nil
}

// runConfig derives a run's engine configuration: scan enable pinned to
// capture, scan-in pins excluded from the decisions under LOC, and the
// shift transfer under LOS.
func runConfig(d *netlist.Design, sc *scan.Scan, opts Options, prefer blockSet) engineConfig {
	cfg := engineConfig{
		dom:       opts.Dom,
		mode:      opts.Mode,
		limit:     opts.BacktrackLimit,
		prefer:    prefer,
		excludePI: map[int]bool{},
		constPI:   map[int]logic.V{},
	}
	if sc != nil {
		cfg.constPI[d.Nets[sc.SE].PI] = logic.Zero
		for _, si := range sc.SIs {
			if opts.Mode == LOC {
				cfg.excludePI[d.Nets[si].PI] = true
			}
		}
		if opts.Mode == LOS {
			cfg.shiftPrev = shiftSources(d, sc)
		}
	}
	return cfg
}

// genOut is one epoch primary's generation product, merged serially.
type genOut struct {
	cube        Cube
	disp        engineResult
	secondaries []int
	// stats is the engine-work delta this primary cost (generation plus
	// its lane's compaction attempts) — per-fault attribution for the
	// hotspot table.
	stats genStats
}

// genOne generates the pattern cube for one epoch primary and dynamically
// compacts further undetected faults into it. It reads shared fault
// statuses (frozen during the epoch's parallel section) and touches only
// its own engine, so concurrent calls are race-free; its result depends
// only on the engine configuration and the status snapshot, never on the
// worker running it.
func genOne(eng *engine, l *fault.List, subset []int, pos, lane, nLanes, scanBase, maxSec, careBudget int) genOut {
	fi := subset[pos]
	before := eng.stats
	cube, disp := eng.generate(&l.Faults[fi])
	out := genOut{cube: cube, disp: disp}
	if disp != genSuccess || maxSec <= 0 {
		out.stats = statsDelta(eng.stats, before)
		return out
	}
	// Dynamic compaction over this lane's stride of the undetected tail,
	// until a failure streak or the secondary budget is hit. The primary's
	// cube is pinned once as the base every secondary is searched on, then
	// only the new bits of each accepted secondary; the engine unpins back
	// to rest at the end.
	rest := len(eng.trail)
	eng.pin(cube)
	streak := 0
	for sj := scanBase + lane; sj < len(subset) && len(out.secondaries) < maxSec && streak < 8; sj += nLanes {
		if careBudget > 0 && len(cube.State) >= careBudget {
			break
		}
		fj := subset[sj]
		if l.Status[fj] != fault.Undetected {
			continue
		}
		c2, d2 := eng.generate(&l.Faults[fj])
		if d2 != genSuccess {
			streak++
			continue
		}
		streak = 0
		for k, v := range c2.State {
			cube.State[k] = v
		}
		for k, v := range c2.PIs {
			cube.PIs[k] = v
		}
		eng.pin(c2)
		out.secondaries = append(out.secondaries, fj)
	}
	eng.undoTo(rest)
	out.stats = statsDelta(eng.stats, before)
	return out
}

// statsDelta subtracts two engine-stat snapshots field-wise.
func statsDelta(after, before genStats) genStats {
	return genStats{
		waves:        after.waves - before.waves,
		decisions:    after.decisions - before.decisions,
		backtracks:   after.backtracks - before.backtracks,
		gateEvals:    after.gateEvals - before.gateEvals,
		abortedWaves: after.abortedWaves - before.abortedWaves,
	}
}

// shiftSources maps each flop to the frame-1 net that reaches it after one
// scan shift: the previous chain cell's output, or the chain's scan-in pin
// for the first cell. This is the launch-off-shift transfer function.
func shiftSources(d *netlist.Design, sc *scan.Scan) map[netlist.InstID]netlist.NetID {
	src := make(map[netlist.InstID]netlist.NetID, len(d.Flops))
	for ci := range sc.Chains {
		prev := sc.SIs[ci]
		for _, f := range sc.Chains[ci].Flops {
			src[f] = prev
			prev = d.Inst(f).Out
		}
	}
	return src
}
