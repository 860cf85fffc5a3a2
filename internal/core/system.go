// Package core assembles the substrates into the paper's methodology:
//
//  1. build the SOC with its physical design (placement, parasitics, scan,
//     clock tree, power grids);
//  2. run the vector-less statistical IR-drop analysis that yields the
//     per-block average-switching-power thresholds (Table 3);
//  3. generate patterns — conventionally (random fill, all blocks at once)
//     or with the paper's noise-tolerant procedure (per-block steps with
//     fill-0, hot block last);
//  4. validate patterns: per-pattern SCAP via gate-level timing simulation
//     (the PLI calculator), dynamic per-pattern IR-drop maps, and
//     IR-drop-aware delay re-simulation.
package core

import (
	"fmt"
	"sync"

	"scap/internal/atpg"
	"scap/internal/clocktree"
	"scap/internal/fault"
	"scap/internal/faultsim"
	"scap/internal/logic"
	"scap/internal/netlist"
	"scap/internal/obs"
	"scap/internal/parasitic"
	"scap/internal/pgrid"
	"scap/internal/place"
	"scap/internal/power"
	"scap/internal/scan"
	"scap/internal/sdf"
	"scap/internal/sim"
	"scap/internal/soc"
)

// Config assembles all subsystem parameters.
type Config struct {
	SOC       soc.Config
	Scan      scan.Config
	Parasitic parasitic.Params
	Clock     clocktree.Params
	Grid      pgrid.Params

	// ToggleProb is the statistical net-toggle probability; the paper uses
	// a pessimistic 30% against the customary 20%.
	ToggleProb float64

	// GridCalibTargetV calibrates the grid impedance so the statistical
	// Case-2 worst drop in the hottest block hits this value (0 disables).
	// It stands in for the unknown real package/grid impedance.
	GridCalibTargetV float64

	// BacktrackLimit is the ATPG abort threshold.
	BacktrackLimit int

	// Seed drives placement, clock jitter and ATPG tie-breaking.
	Seed int64

	// Workers sizes the worker pool of the per-pattern analysis layers
	// (ProfilePatterns, DynamicIRDropAll, MonteCarloIRDrop): 0 means all
	// cores, 1 forces the exact serial path. Results are deterministic
	// for any value — workers only own scratch state and write
	// index-addressed outputs.
	Workers int
}

// DefaultConfig returns the full experiment configuration at the given SOC
// scale divisor (8 reproduces the paper's shapes in minutes; larger values
// shrink the design for tests).
func DefaultConfig(scale int) Config {
	return Config{
		SOC:              soc.DefaultConfig(scale),
		Scan:             scan.DefaultConfig(),
		Parasitic:        parasitic.DefaultParams(),
		Clock:            clocktree.DefaultParams(),
		Grid:             pgrid.DefaultParams(),
		ToggleProb:       0.30,
		GridCalibTargetV: 0.11,
		BacktrackLimit:   64,
		Seed:             1,
	}
}

// System is a fully built design plus its analysis machinery.
type System struct {
	Cfg    Config
	D      *netlist.Design
	Plan   *soc.Plan
	FP     *place.Floorplan
	SC     *scan.Scan
	Sim    *sim.Simulator
	FSim   *faultsim.Sim
	Tree   *clocktree.Tree
	Delays *sdf.Delays

	// GridVDD and GridVSS are the two rail meshes; the VSS pads interleave
	// with the VDD pads.
	GridVDD, GridVSS *pgrid.Grid

	// Period is the at-speed test clock period (ns).
	Period float64

	// Workers mirrors Config.Workers and may be changed between calls
	// (0 = all cores, 1 = exact serial path).
	Workers int

	// meter and tm are the prototypes every worker scratch clones (see
	// profPool): building a meter reads every instance's load
	// capacitance, and a Timing scans the delay table, so Build pays
	// both once. No launch runs on either; ScreenPatterns reads the
	// meter's tables.
	meter *power.Meter
	tm    *sim.Timing

	// screenMu guards screen, the per-worker packing buffers and
	// estimates ScreenPatterns keeps across calls.
	screenMu sync.Mutex
	screen   []screenScratch
}

// Build constructs the complete system.
func Build(cfg Config) (*System, error) {
	defer obs.StartSpan("build").End()
	d, plan, err := soc.Generate(cfg.SOC)
	if err != nil {
		return nil, fmt.Errorf("core: generate: %w", err)
	}
	fp, err := place.Place(d, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("core: place: %w", err)
	}
	sc, err := scan.Insert(d, cfg.Scan)
	if err != nil {
		return nil, fmt.Errorf("core: scan: %w", err)
	}
	if _, err := parasitic.Extract(d, fp, cfg.Parasitic); err != nil {
		return nil, fmt.Errorf("core: parasitics: %w", err)
	}
	s, err := sim.New(d)
	if err != nil {
		return nil, fmt.Errorf("core: sim: %w", err)
	}
	fs := faultsim.New(s)
	fs.Workers = cfg.Workers
	sys := &System{
		Cfg: cfg, D: d, Plan: plan, FP: fp, SC: sc,
		Sim: s, FSim: fs,
		Tree:    clocktree.Build(d, fp, cfg.Clock, cfg.Seed+1),
		Delays:  sdf.Compute(d),
		Period:  cfg.SOC.TestPeriodNs,
		Workers: cfg.Workers,
		meter:   power.NewMeter(d),
	}
	sys.tm = sim.NewTiming(s, sys.Delays, sys.Tree)
	if err := sys.buildGrids(); err != nil {
		return nil, err
	}
	// Surface the mesh geometry in the run report's info block; the
	// factorization adds its nnz/fill when it builds.
	obs.SetRunInfo("grid_mesh_n", sys.GridVDD.P.N)
	obs.SetRunInfo("grid_nodes", sys.GridVDD.P.N*sys.GridVDD.P.N)
	return sys, nil
}

// buildGrids constructs the two rail meshes, optionally calibrating the
// mesh impedance so the statistical Case-2 worst drop in the hottest block
// matches the configured target.
func (sys *System) buildGrids() error {
	defer obs.StartSpan("grid-calibration").End()
	mk := func(p pgrid.Params) (*pgrid.Grid, *pgrid.Grid, error) {
		vdd, err := pgrid.New(sys.FP, p)
		if err != nil {
			return nil, nil, err
		}
		pvss := p
		pvss.PadOffset = 0.5
		vss, err := pgrid.New(sys.FP, pvss)
		if err != nil {
			return nil, nil, err
		}
		return vdd, vss, nil
	}
	p := sys.Cfg.Grid
	// The grids inherit the system's worker knob: it drives the
	// factorization's subtree fan-out (bit-identical for any count, so
	// this is purely a scheduling choice).
	p.Workers = sys.Cfg.Workers
	vdd, vss, err := mk(p)
	if err != nil {
		return fmt.Errorf("core: grid: %w", err)
	}
	if target := sys.Cfg.GridCalibTargetV; target > 0 {
		// Solve the half-cycle statistical case and scale the impedance
		// linearly to land the hottest block's worst drop on the target.
		cur := power.StatCurrents(sys.D, sys.Cfg.ToggleProb, sys.Period/2)
		for i := range cur {
			cur[i] /= 2 // rising edges only on the VDD rail
		}
		sol, err := vdd.Solve(vdd.InjectInstCurrents(sys.D, cur))
		if err != nil {
			return fmt.Errorf("core: grid calibration: %w", err)
		}
		worst := sol.WorstPerBlock(vdd, sys.D.NumBlocks)
		hot := 0.0
		for b := 0; b < sys.D.NumBlocks; b++ {
			if worst[b] > hot {
				hot = worst[b]
			}
		}
		if hot > 0 {
			f := target / hot
			p.SegRes *= f
			p.PadRes *= f
			vdd, vss, err = mk(p)
			if err != nil {
				return fmt.Errorf("core: grid rebuild: %w", err)
			}
		}
	}
	sys.GridVDD, sys.GridVSS = vdd, vss
	return nil
}

// LaunchStateInto derives the launch-off-capture V2 state of a pattern
// for the given domain: domain flops capture the frame-1 response, all
// others hold. The frame-1 settle runs inside ls (skipped when the
// scratch's cached baseline matches) and the V2 state is written into v2,
// with capBuf as the capture buffer (both len(d.Flops)). The settle
// stays cached in ls, so a following LaunchInto on the same scratch with
// the same (v1, pis) skips its own settle entirely — each pattern is
// settled exactly once.
func (sys *System) LaunchStateInto(ls *sim.LaunchScratch, v2, capBuf []logic.V, v1, pis []logic.V, dom int) ([]logic.V, error) {
	nets, err := ls.SettleBaseline(v1, pis)
	if err != nil {
		return nil, err
	}
	cap1 := sys.Sim.CaptureStateInto(capBuf, nets)
	d := sys.D
	for i, f := range d.Flops {
		if d.Inst(f).Domain == dom {
			v2[i] = cap1[i]
		} else {
			v2[i] = v1[i]
		}
	}
	return v2, nil
}

// LaunchPattern runs one timing launch of pattern p in domain dom, with
// the V2 state LaunchStateInto derives, and reports every output
// transition to onToggle (optional). It is the one-off form of the
// per-worker launch the analysis loops run; the Result is the caller's.
func (sys *System) LaunchPattern(p *atpg.Pattern, dom int, onToggle sim.ToggleFn) (*sim.Result, error) {
	pool := sys.profPool(1)
	return pool[0].launch(sys, p.V1, p.PIs, dom, onToggle)
}

// NewFaultList returns a fresh collapsed fault universe for the design.
func (sys *System) NewFaultList() *fault.List { return fault.Universe(sys.D) }

// ATPG runs one ATPG invocation against the given fault list. The fault
// simulator and the epoch-sharded generator both inherit sys.Workers, so
// fault-dropping sweeps and test generation fan out across the worker
// pool (results are identical for any worker count).
func (sys *System) ATPG(l *fault.List, opts atpg.Options) (*atpg.Result, error) {
	if opts.BacktrackLimit == 0 {
		opts.BacktrackLimit = sys.Cfg.BacktrackLimit
	}
	if opts.GenWorkers == 0 {
		opts.GenWorkers = sys.Workers
	}
	sys.FSim.Workers = sys.Workers
	return atpg.Run(sys.FSim, l, sys.SC, opts)
}
