package core

import (
	"fmt"
	"math/rand"
	"sort"

	"scap/internal/netlist"
	"scap/internal/obs"
	"scap/internal/parallel"
	"scap/internal/pgrid"
	"scap/internal/power"
)

// StatCase is one window of the vector-less analysis (Table 3): Case 1
// spreads the cycle's switching over the full tester period, Case 2 over
// half of it — the paper's estimate of the real switching time frame,
// which doubles the average power.
type StatCase struct {
	WindowNs float64
	Power    *power.StatProfile
	// WorstVDD/WorstVSS hold the worst node drop per block plus a chip
	// entry (index NumBlocks), in volts.
	WorstVDD, WorstVSS []float64
}

// StatAnalysis is the full statistical IR-drop analysis.
type StatAnalysis struct {
	ToggleProb   float64
	Case1, Case2 StatCase
	// ThresholdMW is the per-block average switching power threshold the
	// pattern-generation procedure screens against: the block's Case-2
	// (half-cycle) average switching power on the VDD network (the paper's
	// 204 mW for B5). Index NumBlocks is the chip threshold.
	ThresholdMW []float64
	// HotBlock is the index of the block with the largest threshold.
	HotBlock int
}

// Statistical runs the paper's Section 2.2 analysis on both windows.
func (sys *System) Statistical() (*StatAnalysis, error) {
	defer obs.StartSpan("statistical").End()
	// Build the factorizations on this goroutine before the rail solves
	// fan out, so the one-time factor spans nest under "statistical"
	// rather than inside a pool worker.
	for _, g := range []*pgrid.Grid{sys.GridVDD, sys.GridVSS} {
		if _, err := g.Factor(); err != nil {
			return nil, fmt.Errorf("core: statistical factorization: %w", err)
		}
	}
	an := &StatAnalysis{ToggleProb: sys.Cfg.ToggleProb, HotBlock: -1}
	var cur []float64 // per-instance currents buffer shared by both windows
	for i, window := range []float64{sys.Period, sys.Period / 2} {
		c, err := sys.statCase(window, &cur)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			an.Case1 = *c
		} else {
			an.Case2 = *c
		}
	}
	an.ThresholdMW = make([]float64, sys.D.NumBlocks+1)
	hot := 0.0
	for b := 0; b <= sys.D.NumBlocks; b++ {
		an.ThresholdMW[b] = an.Case2.Power.Blocks[b].PowerVddMW
		if b < sys.D.NumBlocks && an.ThresholdMW[b] > hot {
			hot = an.ThresholdMW[b]
			an.HotBlock = b
		}
	}
	return an, nil
}

func (sys *System) statCase(windowNs float64, curBuf *[]float64) (*StatCase, error) {
	d := sys.D
	c := &StatCase{
		WindowNs: windowNs,
		Power:    power.Statistical(d, sys.Cfg.ToggleProb, windowNs),
	}
	// Each rail sees half the transitions (rising on VDD, falling on VSS).
	*curBuf = power.StatCurrentsInto(*curBuf, d, sys.Cfg.ToggleProb, windowNs)
	cur := *curBuf
	for i := range cur {
		cur[i] /= 2
	}
	// The two rail solves are independent; fan them across the pool
	// (cur is shared read-only, each rail writes its own slot).
	grids := [2]*pgrid.Grid{sys.GridVDD, sys.GridVSS}
	var worst [2][]float64
	err := parallel.For(sys.Workers, 2, func(_, r int) error {
		g := grids[r]
		sol, err := g.Solve(g.InjectInstCurrents(d, cur))
		if err != nil {
			return fmt.Errorf("core: statistical solve: %w", err)
		}
		worst[r] = sol.WorstPerBlock(g, d.NumBlocks)
		return nil
	})
	if err != nil {
		return nil, err
	}
	c.WorstVDD, c.WorstVSS = worst[0], worst[1]
	return c, nil
}

// MCResult aggregates the Monte-Carlo refinement of the vector-less
// analysis: instead of one expected-current solve, each trial draws a
// Bernoulli toggle realization per instance at the configured toggle
// probability (a rising edge with half that probability — the VDD-rail
// share), solves the VDD mesh, and the per-block worst drops are
// reduced to mean / 95th-percentile / max envelopes. The expected value
// of a trial's injection equals the Case-2 deterministic injection, so
// the mean envelope brackets Table 3 while the tail quantifies how much
// worse an unlucky cycle can be.
type MCResult struct {
	Trials     int
	WindowNs   float64
	ToggleProb float64
	// MeanVDD, P95VDD and MaxVDD hold the per-block (+chip, index
	// NumBlocks) statistics of the worst VDD-rail node drop, volts.
	MeanVDD, P95VDD, MaxVDD []float64
}

// MonteCarloIRDrop runs the Monte-Carlo loop over the Case-2 (half
// cycle) window. Trials are independent, so they fan out across
// sys.Workers workers; each trial seeds its own PRNG from (seed, trial)
// and takes one lane of its group's sweep against the shared read-only
// factorization, so the result is identical for any worker count.
func (sys *System) MonteCarloIRDrop(trials int, seed int64) (*MCResult, error) {
	defer obs.StartSpan("monte-carlo-irdrop").End()
	if trials <= 0 {
		return nil, fmt.Errorf("core: trials must be positive")
	}
	d := sys.D
	window := sys.Period / 2
	prob := sys.Cfg.ToggleProb

	// fullCur[i] is instance i's VDD-rail current when it toggles with a
	// rising edge this cycle: C·VDD²/(VDD·window), in mA.
	fullCur := make([]float64, d.NumInsts())
	for i := range fullCur {
		fullCur[i] = d.LoadCap(netlist.InstID(i)) * d.Lib.VDD / window * 1e-3
	}

	// Trials go in groups of pgrid.Lanes by index, one VDD sweep per
	// group; each worker's batch is built here, which factors the grid
	// before the trials fan out.
	groups := (trials + pgrid.Lanes - 1) / pgrid.Lanes
	workers := min(parallel.Resolve(sys.Workers), groups)
	type mcScratch struct {
		cur   []float64
		batch *pgrid.Batch
	}
	scratch := make([]mcScratch, workers)
	for w := range scratch {
		b, err := sys.GridVDD.NewBatch(d)
		if err != nil {
			return nil, fmt.Errorf("core: MC factorization: %w", err)
		}
		scratch[w] = mcScratch{cur: make([]float64, d.NumInsts()), batch: b}
	}
	perTrial := make([][]float64, trials)
	err := parallel.For(workers, groups, func(w, g int) error {
		sc := &scratch[w]
		lo, hi := g*pgrid.Lanes, min((g+1)*pgrid.Lanes, trials)
		sc.batch.Reset()
		for t := lo; t < hi; t++ {
			rng := rand.New(rand.NewSource(seed + int64(t)*7919))
			for i := range sc.cur {
				if rng.Float64() < prob/2 { // toggles AND rises
					sc.cur[i] = fullCur[i]
				} else {
					sc.cur[i] = 0
				}
			}
			sc.batch.Inject(t-lo, sc.cur)
		}
		sc.batch.Sweep(hi - lo)
		for t := lo; t < hi; t++ {
			perTrial[t] = sc.batch.WorstPerBlock(t-lo, d.NumBlocks)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	nb := d.NumBlocks + 1
	res := &MCResult{
		Trials: trials, WindowNs: window, ToggleProb: prob,
		MeanVDD: make([]float64, nb),
		P95VDD:  make([]float64, nb),
		MaxVDD:  make([]float64, nb),
	}
	vals := make([]float64, trials)
	for b := 0; b < nb; b++ {
		for t := range perTrial {
			v := perTrial[t][b]
			vals[t] = v
			res.MeanVDD[b] += v
			if v > res.MaxVDD[b] {
				res.MaxVDD[b] = v
			}
		}
		res.MeanVDD[b] /= float64(trials)
		sort.Float64s(vals)
		idx := (95*trials - 1) / 100
		if idx >= trials {
			idx = trials - 1
		}
		res.P95VDD[b] = vals[idx]
	}
	return res, nil
}
