package atpg

import (
	"fmt"
	"math/bits"

	"scap/internal/fault"
	"scap/internal/logic"
)

// refFrontierObjective is the D-frontier search the frontier set
// replaced: it rescans the installed fault's whole cone, deepest gate
// first, and returns the objective of the first gate that has a diverged
// input, an undiverged output and an X side input its propagation needs.
// When preferredOnly is set, gates outside the preferred block set are
// skipped.
func refFrontierObjective(e *engine, preferredOnly bool) (objective, bool) {
	if preferredOnly && e.preferred == nil {
		return objective{}, false
	}
	c := &e.inCone
	for p := c.hi; p >= c.lo; p-- {
		if !c.has(int32(p)) || preferredOnly && !e.preferred[p] {
			continue
		}
		g := &e.gates[p]
		if e.diverged(g.Out()) {
			continue
		}
		in := g.Inputs()
		dPin := -1
		for k, n := range in {
			if e.diverged(n) {
				dPin = k
				break
			}
		}
		if dPin < 0 {
			continue
		}
		for _, nd := range propagationNeeds(g.Kind(), dPin) {
			n := in[nd.pin]
			if rail(e.vals[n], sh2) == logic.X {
				return objective{frame: frame2, net: n, val: nd.val}, true
			}
		}
	}
	return objective{}, false
}

// checkFrontier checks the frontier set of the installed fault against
// the rescan: every member is a cone gate inside the set's bounds, every
// cone gate with a diverged input is a member, and frontierObjective
// returns the rescan's objective with and without preferredOnly.
func (e *engine) checkFrontier() error {
	f, c := &e.front, &e.inCone
	for w := range c.bits {
		if x := f.bits[w] &^ c.bits[w]; x != 0 {
			return fmt.Errorf("the frontier set holds position %d, outside the cone", w<<6|bits.TrailingZeros64(x))
		}
		for x := c.bits[w]; x != 0; x &= x - 1 {
			p := w<<6 | bits.TrailingZeros64(x)
			if f.has(int32(p)) {
				if p < f.lo || p > f.hi {
					return fmt.Errorf("frontier member %d outside the bounds [%d, %d]", p, f.lo, f.hi)
				}
				continue
			}
			for _, n := range e.gates[p].Inputs() {
				if e.diverged(n) {
					return fmt.Errorf("cone gate %s reads diverged net %s and is not in the frontier set",
						e.d.Insts[e.gates[p].ID()].Name, e.d.Nets[n].Name)
				}
			}
		}
	}
	for _, pref := range []bool{true, false} {
		got, gok := e.frontierObjective(pref)
		want, wok := refFrontierObjective(e, pref)
		if got != want || gok != wok {
			return fmt.Errorf("frontierObjective(%v) = %+v %v, the rescan %+v %v", pref, got, gok, want, wok)
		}
	}
	return nil
}

// generateChecked is generate with check run after the inject wave and
// after every later wave and undo. It repeats search and backtrack step
// for step, one undo at a time; TestRegionSearchMatchesFullWaves requires
// its outcome to equal that of searchFull, which runs search itself.
func generateChecked(e *engine, f *fault.Fault, check func(after string)) (Cube, engineResult) {
	defer e.teardown(len(e.trail))
	if !e.setupFault(f) {
		return Cube{}, genUntestable
	}
	check("the inject wave")
	start := e.stats.waves
	for {
		if e.backtracks > e.limit {
			e.stats.abortedWaves += e.stats.waves - start
			return Cube{}, genAborted
		}
		if e.excited() && e.observed() {
			return e.cube(), genSuccess
		}
		if obj, ok := e.getObjective(); ok {
			if in, v, found := e.backtrace(obj); found {
				e.decide(in, v)
				check("a decision")
				continue
			}
		}
		flipped := false
		for len(e.decs) > 0 && !flipped {
			d := &e.decs[len(e.decs)-1]
			e.undoTo(d.trailMark)
			check("an undo")
			if d.flipped {
				e.decs = e.decs[:len(e.decs)-1]
				continue
			}
			d.flipped = true
			d.val = d.val.Not()
			e.backtracks++
			e.stats.backtracks++
			e.assignInput(d.input, d.val)
			check("a flip")
			flipped = true
		}
		if !flipped {
			return Cube{}, genUntestable
		}
	}
}
