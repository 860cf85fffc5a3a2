// Package delayscale implements the paper's IR-drop-aware re-simulation
// (the second PLI of Section 3.2): given a pattern's dynamic IR-drop map,
// every cell delay is scaled by
//
//	ScaledCellDelay = Delay · (1 + k_volt · ΔV)
//
// with ΔV the local supply droop, and the pattern is re-simulated through
// the event-driven timing simulator. The clock tree is derated the same
// way, which is what makes some endpoint delays *decrease* (the paper's
// Figure 7 Region 2): when the capture flop's clock path slows more than
// the data path, the delay measured relative to the arriving clock shrinks.
package delayscale

import (
	"fmt"

	"scap/internal/clocktree"
	"scap/internal/logic"
	"scap/internal/netlist"
	"scap/internal/pgrid"
	"scap/internal/sdf"
	"scap/internal/sim"
)

// ScaleDelays returns a copy of the delay table with every instance's rise
// and fall delays derated by the IR-drop at its placed location.
func ScaleDelays(d *netlist.Design, delays *sdf.Delays, g *pgrid.Grid, sol *pgrid.Solution, kvolt float64) *sdf.Delays {
	out := delays.Clone()
	for i := range d.Insts {
		inst := &d.Insts[i]
		drop := sol.At(g, inst.X, inst.Y)
		if drop < 0 {
			drop = 0
		}
		f := 1 + kvolt*drop
		out.Rise[i] *= f
		out.Fall[i] *= f
	}
	return out
}

// ScaledClock derates a clock tree's per-flop arrivals with the same
// voltage map and implements sim.Clock.
type ScaledClock struct {
	arrival []float64 // by InstID, 0 for non-flops
}

// NewScaledClock precomputes derated clock arrivals for every flop.
func NewScaledClock(d *netlist.Design, tree *clocktree.Tree, g *pgrid.Grid, sol *pgrid.Solution, kvolt float64) *ScaledClock {
	sc := &ScaledClock{arrival: make([]float64, d.NumInsts())}
	dropAt := func(x, y float64) float64 { return sol.At(g, x, y) }
	for _, f := range d.Flops {
		sc.arrival[f] = tree.ScaledArrival(f, kvolt, dropAt)
	}
	return sc
}

// Arrival returns the derated clock arrival of flop f.
func (sc *ScaledClock) Arrival(f netlist.InstID) float64 { return sc.arrival[f] }

// Endpoint is one flop endpoint's measured path delays in the two runs.
type Endpoint struct {
	Flop    netlist.InstID
	Block   int
	Active  bool    // endpoint saw a transition in the nominal run
	Nominal float64 // ns, arrival at D minus nominal clock arrival
	Scaled  float64 // ns, arrival at D minus derated clock arrival
}

// Delta returns the scaled-minus-nominal delay change (ns).
func (e *Endpoint) Delta() float64 { return e.Scaled - e.Nominal }

// Impact is the full Figure 7 comparison for one pattern.
type Impact struct {
	Endpoints []Endpoint
	// Slowed / Sped count endpoints active in both runs whose measured
	// delay grew / shrank by more than 1 ps; Vanished counts endpoints
	// whose transition disappeared entirely under derating (a hazard that
	// no longer occurs).
	Slowed, Sped, Vanished int
	// MaxSlowdownFrac is the largest relative delay increase among active
	// endpoints (e.g. 0.30 for the paper's "up to 30%" Region 1).
	MaxSlowdownFrac float64
}

// Compare re-simulates one pattern with IR-drop-scaled delays and reports
// per-endpoint path delays relative to each endpoint's own (nominal vs
// derated) clock arrival. nom is the pattern's nominal run: a launch of
// v1/v2/pis (as in sim.Timing.LaunchInto) on delays and tree, which the
// caller has already simulated. ls (optional, nil allowed) is a reusable
// launch scratch for the derated run; nom may live in it. The settled
// baseline is delay- and clock-independent, so a scratch that already
// holds this pattern's baseline pays no settle at all.
func Compare(s *sim.Simulator, delays *sdf.Delays, tree *clocktree.Tree,
	g *pgrid.Grid, sol *pgrid.Solution, kvolt float64, nom *sim.Result,
	v1, v2, pis []logic.V, period float64, ls *sim.LaunchScratch) (*Impact, error) {

	d := s.Design()
	// Harvest the nominal endpoints before the scaled run: a shared
	// scratch reuses its Result, so the scaled launch overwrites nom.
	imp := &Impact{Endpoints: make([]Endpoint, len(d.Flops))}
	for i, f := range d.Flops {
		ep := &imp.Endpoints[i]
		ep.Flop = f
		ep.Block = d.Inst(f).Block
		ep.Active = nom.EndpointActive[i]
		if ep.Active {
			ep.Nominal = nom.EndpointArrival[i] - tree.Arrival(f)
		}
	}

	scaledDelays := ScaleDelays(d, delays, g, sol, kvolt)
	scaledClock := NewScaledClock(d, tree, g, sol, kvolt)
	scl := sim.NewTiming(s, scaledDelays, scaledClock)
	sclRes, err := scl.LaunchInto(ls, v1, v2, pis, period, nil)
	if err != nil {
		return nil, fmt.Errorf("delayscale: scaled run: %w", err)
	}

	for i, f := range d.Flops {
		ep := &imp.Endpoints[i]
		if !ep.Active {
			continue // the paper plots non-active endpoints at zero delay
		}
		if !sclRes.EndpointActive[i] {
			ep.Scaled = ep.Nominal // transition vanished: report no shift
			imp.Vanished++
			continue
		}
		ep.Scaled = sclRes.EndpointArrival[i] - scaledClock.Arrival(f)
		switch {
		case ep.Scaled > ep.Nominal+1e-3:
			imp.Slowed++
		case ep.Scaled < ep.Nominal-1e-3:
			imp.Sped++
		}
		if ep.Nominal > 0 {
			if frac := (ep.Scaled - ep.Nominal) / ep.Nominal; frac > imp.MaxSlowdownFrac {
				imp.MaxSlowdownFrac = frac
			}
		}
	}
	return imp, nil
}
