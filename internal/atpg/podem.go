package atpg

import (
	"scap/internal/cell"
	"scap/internal/fault"
	"scap/internal/logic"
	"scap/internal/netlist"
)

// setupFault installs fault f into the engine: computes the frame-2 fanout
// cone and observable endpoints, injects the stuck value into the faulty
// machine, and applies pinned primary-input constants (e.g. scan enable).
// It returns false when the fault has no observable endpoint in this
// domain.
func (e *engine) setupFault(f *fault.Fault) bool {
	e.site = f.Net
	if f.Type == fault.STR {
		e.stuck = logic.Zero
	} else {
		e.stuck = logic.One
	}
	cone, err := e.d.FanoutCone(f.Net)
	if err != nil {
		return false
	}
	e.cone = cone

	// Observable endpoints: D nets of target-domain flops fed by the site
	// or by cone gates. Dedup via the engine's generation-stamped net
	// marks: bumping the generation invalidates every stale stamp at once,
	// so this runs allocation-free once per fault across the whole list.
	e.obs = e.obs[:0]
	e.obsGen++
	if e.obsGen == 0 { // stamp wrapped: clear the slate once
		for i := range e.obsSeen {
			e.obsSeen[i] = 0
		}
		e.obsGen = 1
	}
	addObsOf := func(n netlist.NetID) {
		for _, ld := range e.d.Nets[n].Loads {
			inst := &e.d.Insts[ld.Inst]
			if inst.IsFlop() && ld.Pin == 0 && inst.Domain == e.dom && e.obsSeen[n] != e.obsGen {
				e.obsSeen[n] = e.obsGen
				e.obs = append(e.obs, n)
			}
		}
	}
	addObsOf(f.Net)
	for _, g := range cone {
		addObsOf(e.d.Insts[g].Out)
	}
	if len(e.obs) == 0 {
		return false
	}

	// Fault injection. The stuck value is propagated eagerly so the
	// faulty rail is always the exact function closure of the current
	// assignment set.
	e.set(2, e.site, e.stuck)
	e.schedule2(e.site)
	e.wave()
	for pi, v := range e.piConst {
		e.assignInput(inputRef{isPI: true, idx: pi}, v)
	}
	return true
}

// teardown restores the all-X state after a fault.
func (e *engine) teardown() {
	e.undoTo(0)
	e.decs = e.decs[:0]
	e.backtracks = 0
}

// excited reports whether the launch transition is fully justified: the
// site holds the pre-transition value in frame 1 and the post-transition
// value in frame 2 of the good machine.
func (e *engine) excited() bool {
	return e.val1[e.site] == e.stuck && e.val2[e.site] == e.stuck.Not()
}

// conflicted reports whether an assigned value contradicts the fault's
// activation requirements.
func (e *engine) conflicted() bool {
	if v := e.val1[e.site]; v != logic.X && v != e.stuck {
		return true
	}
	if v := e.val2[e.site]; v != logic.X && v != e.stuck.Not() {
		return true
	}
	return false
}

// observed reports whether the fault effect has reached an observable
// endpoint with defined, differing good/faulty values.
func (e *engine) observed() bool {
	for _, n := range e.obs {
		g, f := e.val2[n], e.valf[n]
		if g != logic.X && f != logic.X && g != f {
			return true
		}
	}
	return false
}

// divergedInput reports whether net n carries a defined good/faulty
// difference in frame 2.
func (e *engine) diverged(n netlist.NetID) bool {
	g, f := e.val2[n], e.valf[n]
	return g != logic.X && f != logic.X && g != f
}

// getObjective picks the next value requirement. Priority: justify the
// frame-1 site value, then the frame-2 good value, then advance the
// deepest D-frontier gate.
func (e *engine) getObjective() (objective, bool) {
	if e.conflicted() {
		return objective{}, false
	}
	if e.val1[e.site] == logic.X {
		return objective{frame: frame1, net: e.site, val: e.stuck}, true
	}
	if e.val2[e.site] == logic.X {
		return objective{frame: frame2, net: e.site, val: e.stuck.Not()}, true
	}
	// D-frontier: deepest cone gate with a diverged input whose own output
	// has not diverged yet and still has X side inputs to set. Gates inside
	// the preferred (targeted) blocks are tried first so detection stays
	// local and untargeted blocks remain quiet.
	if obj, ok := e.frontierObjective(true); ok {
		return obj, true
	}
	return e.frontierObjective(false)
}

// frontierObjective scans the D-frontier; when preferredOnly is set, gates
// outside the preferred block set are skipped.
func (e *engine) frontierObjective(preferredOnly bool) (objective, bool) {
	if preferredOnly && e.prefer == nil {
		return objective{}, false
	}
	for i := len(e.cone) - 1; i >= 0; i-- {
		g := e.cone[i]
		inst := &e.d.Insts[g]
		if preferredOnly && !e.prefer[inst.Block] {
			continue
		}
		if e.diverged(inst.Out) {
			continue
		}
		dPin := -1
		for p, n := range inst.In {
			if e.diverged(n) {
				dPin = p
				break
			}
		}
		if dPin < 0 {
			continue
		}
		needs := propagationNeeds(inst.Kind, dPin)
		for _, nd := range needs {
			n := inst.In[nd.pin]
			if e.val2[n] == logic.X {
				return objective{frame: frame2, net: n, val: nd.val}, true
			}
		}
	}
	return objective{}, false
}

// need is a side-input requirement for propagating through a gate.
type need struct {
	pin int
	val logic.V
}

// needsTab precomputes computePropagationNeeds for every (kind, pin): the
// D-frontier scan queries it once per frontier gate per objective pass, so
// the old per-call slice building was a steady allocation source in the
// search hot loop.
var needsTab = func() [][][]need {
	tab := make([][][]need, cell.NumKinds())
	for k := range tab {
		kind := cell.Kind(k)
		tab[k] = make([][]need, kind.NumInputs())
		for p := range tab[k] {
			tab[k][p] = computePropagationNeeds(kind, p)
		}
	}
	return tab
}()

// propagationNeeds returns the side-input values that let a fault effect
// on input pin propagate through a gate of the given kind, served from the
// precomputed table (the returned slice is shared: callers must not
// mutate it).
func propagationNeeds(k cell.Kind, pin int) []need {
	return needsTab[k][pin]
}

// computePropagationNeeds derives the propagation requirement list for one
// (kind, pin); it runs only at package init to fill needsTab.
func computePropagationNeeds(k cell.Kind, pin int) []need {
	others := func(v logic.V, n int) []need {
		var out []need
		for p := 0; p < n; p++ {
			if p != pin {
				out = append(out, need{pin: p, val: v})
			}
		}
		return out
	}
	switch k {
	case cell.Inv, cell.Buf:
		return nil
	case cell.Nand2, cell.Nand3, cell.Nand4, cell.And2, cell.And3, cell.And4:
		return others(logic.One, k.NumInputs())
	case cell.Nor2, cell.Nor3, cell.Nor4, cell.Or2, cell.Or3, cell.Or4:
		return others(logic.Zero, k.NumInputs())
	case cell.Xor2, cell.Xnor2:
		return others(logic.Zero, 2)
	case cell.Mux2:
		switch pin {
		case 0:
			return []need{{pin: 2, val: logic.Zero}}
		case 1:
			return []need{{pin: 2, val: logic.One}}
		default: // select diverged: make the data inputs differ
			return []need{{pin: 0, val: logic.Zero}, {pin: 1, val: logic.One}}
		}
	case cell.Aoi21: // !(A*B + C)
		switch pin {
		case 0:
			return []need{{pin: 1, val: logic.One}, {pin: 2, val: logic.Zero}}
		case 1:
			return []need{{pin: 0, val: logic.One}, {pin: 2, val: logic.Zero}}
		default:
			return []need{{pin: 0, val: logic.Zero}}
		}
	case cell.Oai21: // !((A+B) * C)
		switch pin {
		case 0:
			return []need{{pin: 1, val: logic.Zero}, {pin: 2, val: logic.One}}
		case 1:
			return []need{{pin: 0, val: logic.Zero}, {pin: 2, val: logic.One}}
		default:
			return []need{{pin: 0, val: logic.One}}
		}
	case cell.Aoi22: // !(A*B + C*D)
		switch pin {
		case 0:
			return []need{{pin: 1, val: logic.One}, {pin: 2, val: logic.Zero}}
		case 1:
			return []need{{pin: 0, val: logic.One}, {pin: 2, val: logic.Zero}}
		case 2:
			return []need{{pin: 3, val: logic.One}, {pin: 0, val: logic.Zero}}
		default:
			return []need{{pin: 2, val: logic.One}, {pin: 0, val: logic.Zero}}
		}
	case cell.Oai22: // !((A+B) * (C+D))
		switch pin {
		case 0:
			return []need{{pin: 1, val: logic.Zero}, {pin: 2, val: logic.One}}
		case 1:
			return []need{{pin: 0, val: logic.Zero}, {pin: 2, val: logic.One}}
		case 2:
			return []need{{pin: 3, val: logic.Zero}, {pin: 0, val: logic.One}}
		default:
			return []need{{pin: 2, val: logic.Zero}, {pin: 0, val: logic.One}}
		}
	default:
		return nil
	}
}

// inversion reports whether the gate kind inverts for backtrace purposes.
func inversion(k cell.Kind) bool {
	switch k {
	case cell.Inv, cell.Nand2, cell.Nand3, cell.Nand4,
		cell.Nor2, cell.Nor3, cell.Nor4, cell.Xnor2,
		cell.Aoi21, cell.Oai21, cell.Aoi22, cell.Oai22:
		return true
	default:
		return false
	}
}

// backtrace walks an objective backward through X-valued logic to an
// unassigned decision input. It returns false when no X path exists.
func (e *engine) backtrace(obj objective) (inputRef, logic.V, bool) {
	fr, n, v := obj.frame, obj.net, obj.val
	for steps := 0; steps < 4*int(e.maxLevel)+16; steps++ {
		net := &e.d.Nets[n]
		if net.PI >= 0 {
			if !e.decidablePI[net.PI] {
				return inputRef{}, 0, false
			}
			if e.valOf(fr, n) != logic.X {
				return inputRef{}, 0, false
			}
			return inputRef{isPI: true, idx: net.PI}, v, true
		}
		drv := net.Driver
		inst := &e.d.Insts[drv]
		if inst.IsFlop() {
			fi := e.flopIdx[drv]
			if fr == frame1 || e.hold[drv] {
				if e.val1[inst.Out] != logic.X {
					return inputRef{}, 0, false
				}
				return inputRef{isPI: false, idx: fi}, v, true
			}
			// Frame-2 flop output: cross the frame boundary to its source.
			src, ok := e.xferSrc[drv]
			if !ok {
				return inputRef{}, 0, false
			}
			fr, n = frame1, src
			continue
		}
		// Combinational gate: flip the target value through inverting
		// kinds and descend into an X-valued input.
		if inversion(inst.Kind) {
			v = v.Not()
		}
		pick := netlist.NoNet
		bestLv := int32(-1)
		for _, in := range inst.In {
			if e.valOf(fr, in) != logic.X {
				continue
			}
			lv := int32(0)
			if d := e.d.Nets[in].Driver; d != netlist.NoInst {
				lv = e.levels[d]
			}
			// Prefer the shallowest X input: cheapest to justify.
			if pick == netlist.NoNet || lv < bestLv {
				pick, bestLv = in, lv
			}
		}
		if pick == netlist.NoNet {
			return inputRef{}, 0, false
		}
		n = pick
	}
	return inputRef{}, 0, false
}

func (e *engine) valOf(fr int, n netlist.NetID) logic.V {
	if fr == frame1 {
		return e.val1[n]
	}
	return e.val2[n]
}

// decide pushes a new decision and applies it.
func (e *engine) decide(in inputRef, v logic.V) {
	e.stats.decisions++
	e.decs = append(e.decs, decision{input: in, val: v, trailMark: len(e.trail)})
	e.assignInput(in, v)
}

// backtrack flips the most recent unflipped decision. It returns false when
// the search space is exhausted.
func (e *engine) backtrack() bool {
	for len(e.decs) > 0 {
		d := &e.decs[len(e.decs)-1]
		if d.flipped {
			e.undoTo(d.trailMark)
			e.decs = e.decs[:len(e.decs)-1]
			continue
		}
		e.undoTo(d.trailMark)
		d.flipped = true
		d.val = d.val.Not()
		e.backtracks++
		e.stats.backtracks++
		e.assignInput(d.input, d.val)
		return true
	}
	return false
}

// generate runs PODEM for fault f and returns the cube on success.
func (e *engine) generate(f *fault.Fault) (Cube, engineResult) {
	return e.generateWith(f, Cube{})
}

// generateWith runs PODEM for fault f on top of pinned base assignments
// (dynamic compaction: the base is the cube accumulated for earlier
// targets of the same pattern). The returned cube contains only the new
// decisions; by Kleene monotonicity the base's earlier detection proofs
// survive any extension. A base conflict surfaces as untestable-under-base.
func (e *engine) generateWith(f *fault.Fault, base Cube) (Cube, engineResult) {
	defer e.teardown()
	if !e.setupFault(f) {
		return Cube{}, genUntestable
	}
	e.applyBaseBatch(base)
	return e.search()
}

// search is the classical one-implication-at-a-time PODEM loop.
func (e *engine) search() (Cube, engineResult) {
	for {
		if e.backtracks > e.limit {
			return Cube{}, genAborted
		}
		if e.excited() && e.observed() {
			return e.cube(), genSuccess
		}
		obj, ok := e.getObjective()
		if ok {
			in, v, found := e.backtrace(obj)
			if found {
				e.decide(in, v)
				continue
			}
		}
		if !e.backtrack() {
			return Cube{}, genUntestable
		}
	}
}

// applyBaseBatch pins earlier-cube assignments without putting them on
// the decision stack, so backtracking never undoes them. It places every
// still-unassigned care bit of the base and settles them in one
// implication wave; under dynamic compaction a wave per base bit would
// dominate the engine's wave count. The result is the fixpoint a wave
// per bit reaches: Kleene implication is monotone and confluent, so the
// closure of a set of root assignments is independent of application
// order and of whether a bit another bit already implies is written as a
// root or derived by the wave. Base cubes are mutually consistent by
// construction (they were jointly committed when earlier targets accepted
// them) and the frame-1/frame-2 good rails carry no fault-dependent
// state, so a bit can never arrive implied to the opposite value.
// Iteration order is free to be the map's: each (rail, net) pair is
// written at most once per batch, so trail restoration is
// order-independent too.
func (e *engine) applyBaseBatch(base Cube) {
	placed := 0
	for idx, v := range base.State {
		f := e.d.Flops[idx]
		if e.val1[e.d.Insts[f].Out] == logic.X {
			e.place(inputRef{isPI: false, idx: idx}, v)
			placed++
		}
	}
	for idx, v := range base.PIs {
		n := e.d.PIs[idx]
		if e.val1[n] == logic.X {
			e.place(inputRef{isPI: true, idx: idx}, v)
			placed++
		}
	}
	if placed > 0 {
		e.stats.waves++
		e.wave()
	}
}

// cube extracts the decision assignments as a test cube.
func (e *engine) cube() Cube {
	c := Cube{State: map[int]logic.V{}, PIs: map[int]logic.V{}}
	for i := range e.decs {
		d := &e.decs[i]
		if d.input.isPI {
			c.PIs[d.input.idx] = d.val
		} else {
			c.State[d.input.idx] = d.val
		}
	}
	for pi, v := range e.piConst {
		c.PIs[pi] = v
	}
	return c
}
