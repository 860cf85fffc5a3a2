package atpg

import (
	"math/bits"

	"scap/internal/cell"
	"scap/internal/fault"
	"scap/internal/logic"
	"scap/internal/netlist"
)

// setupFault installs fault f into the engine: collects the frame-2
// fanout cone and the observable endpoints, and injects the stuck value
// into the faulty machine. It returns false when the fault has no
// observable endpoint in this domain. The read region waits for the
// search's first decision (assignInput): the inject wave evaluates only
// cone gates, and a search that ends before it decides reads no other
// wave.
func (e *engine) setupFault(f *fault.Fault) bool {
	if !e.install(f) {
		return false
	}
	e.inject()
	return true
}

// install sets the site, the stuck value, the cone and the observable
// endpoints of fault f, and reports whether it has an endpoint.
func (e *engine) install(f *fault.Fault) bool {
	e.site = f.Net
	if f.Type == fault.STR {
		e.stuck = logic.Zero
	} else {
		e.stuck = logic.One
	}
	e.collectCone(f.Net)

	// Observable endpoints: D nets of target-domain flops fed by the site
	// or by cone gates. Each net has one driver, so the list has no
	// duplicates.
	e.obs = e.obs[:0]
	if e.obsD[f.Net] {
		e.obs = append(e.obs, f.Net)
	}
	c := &e.inCone
	for w := c.lo >> 6; w <= c.hi>>6; w++ {
		for x := c.bits[w]; x != 0; x &= x - 1 {
			if out := e.gates[w<<6|bits.TrailingZeros64(x)].Out(); e.obsD[out] {
				e.obs = append(e.obs, out)
			}
		}
	}
	return len(e.obs) > 0
}

// inject writes the stuck value into the site's faulty rail and settles
// it. The stuck value is propagated eagerly so the faulty rail is always
// the exact function closure of the current assignment set. A site the
// write leaves diverged puts its loads in the frontier set.
func (e *engine) inject() {
	e.set(shF, e.site, e.stuck)
	loads := e.s.GateLoads(e.site)
	e.d2.mark(loads)
	if e.diverged(e.site) {
		e.front.mark(loads)
	}
	e.wave()
}

// collectCone fills e.inCone with the gates reachable from net site. It
// sweeps the set forward as it fills it: mark the site's loads, then each
// reached gate's loads, which sit at higher positions, so the members
// above the last one visited are the ones still to visit. Gate positions
// are topological, so walking the set by position visits the cone in
// TopoOrder, and from its highest position down deepest-first, the order
// the D-frontier is searched in (frontierObjective).
func (e *engine) collectCone(site netlist.NetID) {
	c := &e.inCone
	c.mark(e.s.GateLoads(site))
	for w := c.lo >> 6; w <= c.hi>>6; w++ {
		for x := c.bits[w]; x != 0; {
			b := bits.TrailingZeros64(x)
			c.mark(e.s.GateLoads(e.gates[w<<6|b].Out()))
			x = c.bits[w] &^ (2<<uint(b) - 1) // members above b
		}
	}
}

// buildRegion fills the installed fault's read region: reg2 with the
// cone plus the combinational fan-in of the site and of every cone gate,
// reg1 with the fan-in of the site plus the fan-in of the transfer source
// of each flop whose frame-2 Q a reg2 gate reads or that drives the site.
// That is every value the search reads: excited and conflicted read the
// site in both frames, observed and the D-frontier read cone gates and
// their inputs in frame 2, and the backtrace descends from those through
// fan-in, crossing to frame 1 only at a flop's transfer source. Both sets
// are closed under fan-in, so waves limited to them imply there exactly
// what full waves would.
//
// A descending sweep fills each set: fan-ins sit at lower positions, so
// every member is reached before the sweep passes its position. Frame 2
// goes first, since its members seed frame 1 and never the reverse.
func (e *engine) buildRegion() {
	r1, r2 := &e.reg1, &e.reg2
	if q, ok := e.readSeed(e.site); ok {
		if q >= 0 {
			r2.add(q)
			r1.add(q)
		} else {
			r1.add(^q)
		}
	}
	if c := &e.inCone; c.lo <= c.hi {
		for w := c.lo >> 6; w <= c.hi>>6; w++ {
			r2.bits[w] |= c.bits[w]
		}
		r2.lo, r2.hi = min(r2.lo, c.lo), max(r2.hi, c.hi)
	}
	// The sweeps keep the bounds in locals: only lo2 moves in frame 2,
	// only lo1 in frame 1.
	fin, start, b1, b2 := e.fin, e.finStart, r1.bits, r2.bits
	lo1, hi1, lo2 := r1.lo, r1.hi, r2.lo
	for w := r2.hi >> 6; w >= lo2>>6; w-- {
		for x := b2[w]; x != 0; {
			b := 63 - bits.LeadingZeros64(x)
			p := w<<6 | b
			for _, q := range fin[start[p]:start[p+1]] {
				if q >= 0 {
					b2[q>>6] |= 1 << uint(q&63)
					lo2 = min(lo2, int(q))
				} else {
					q = ^q
					b1[q>>6] |= 1 << uint(q&63)
					lo1, hi1 = min(lo1, int(q)), max(hi1, int(q))
				}
			}
			x = b2[w] & (1<<uint(b) - 1) // members below b
		}
	}
	for w := hi1 >> 6; w >= lo1>>6; w-- {
		for x := b1[w]; x != 0; {
			b := 63 - bits.LeadingZeros64(x)
			p := w<<6 | b
			for _, q := range fin[start[p]:start[p+1]] {
				if q < 0 {
					break // the row's transfer seeds
				}
				b1[q>>6] |= 1 << uint(q&63)
				lo1 = min(lo1, int(q))
			}
			x = b1[w] & (1<<uint(b) - 1)
		}
	}
	r1.lo, r1.hi, r2.lo = lo1, hi1, lo2
	e.regionBuilt = true
}

// teardown uninstalls the fault: it undoes every assignment made since
// mark, the trail length when generate started, so whatever was pinned
// before (the resting state, a compaction base) stays, and empties the
// cone, region and frontier sets.
func (e *engine) teardown(mark int) {
	e.undoTo(mark)
	e.decs = e.decs[:0]
	e.backtracks = 0
	e.site = netlist.NoNet
	e.inCone.clear()
	e.reg1.clear()
	e.reg2.clear()
	e.front.clear()
	e.regionBuilt = false
}

// excited reports whether the launch transition is fully justified: the
// site holds the pre-transition value in frame 1 and the post-transition
// value in frame 2 of the good machine.
func (e *engine) excited() bool {
	b := e.vals[e.site]
	return rail(b, sh1) == e.stuck && rail(b, sh2) == e.stuck.Not()
}

// conflicted reports whether an assigned value contradicts the fault's
// activation requirements.
func (e *engine) conflicted() bool {
	b := e.vals[e.site]
	if v := rail(b, sh1); v != logic.X && v != e.stuck {
		return true
	}
	if v := rail(b, sh2); v != logic.X && v != e.stuck.Not() {
		return true
	}
	return false
}

// observed reports whether the fault effect has reached an observable
// endpoint with defined, differing good/faulty values.
func (e *engine) observed() bool {
	for _, n := range e.obs {
		if e.diverged(n) {
			return true
		}
	}
	return false
}

// diverged reports whether net n carries a defined good/faulty difference
// in frame 2.
func (e *engine) diverged(n netlist.NetID) bool { return divergedTab[e.vals[n]] }

// getObjective picks the next value requirement. Priority: justify the
// frame-1 site value, then the frame-2 good value, then advance the
// deepest D-frontier gate.
func (e *engine) getObjective() (objective, bool) {
	if e.conflicted() {
		return objective{}, false
	}
	if rail(e.vals[e.site], sh1) == logic.X {
		return objective{frame: frame1, net: e.site, val: e.stuck}, true
	}
	if rail(e.vals[e.site], sh2) == logic.X {
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

// frontierObjective searches the D-frontier deepest gate first; when
// preferredOnly is set, gates outside the preferred block set are
// skipped. It walks the frontier set from its highest position down and
// checks each member as a scan of the whole cone would: the set holds
// every cone gate with a diverged input, so the first gate that passes
// is the one that scan would find.
func (e *engine) frontierObjective(preferredOnly bool) (objective, bool) {
	if preferredOnly && e.preferred == nil {
		return objective{}, false
	}
	f := &e.front
	for w := f.hi >> 6; w >= f.lo>>6; w-- {
		for x := f.bits[w]; x != 0; {
			b := 63 - bits.LeadingZeros64(x)
			x &^= 1 << uint(b)
			p := w<<6 | b
			if preferredOnly && !e.preferred[p] {
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
		if p := e.instPos[drv]; p < 0 {
			src := e.xferSrc[drv]
			if fr == frame1 || src == netlist.NoNet {
				if rail(e.vals[n], sh1) != logic.X {
					return inputRef{}, 0, false
				}
				return inputRef{isPI: false, idx: int(^p)}, v, true
			}
			// Frame-2 flop output: cross the frame boundary to its source.
			fr, n = frame1, src
			continue
		}
		inst := &e.d.Insts[drv]
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
		return rail(e.vals[n], sh1)
	}
	return rail(e.vals[n], sh2)
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

// generate runs PODEM for fault f on top of whatever the engine has pinned
// (nothing beyond the resting state for a primary target; the pattern's
// cube so far for a compaction secondary) and returns the cube on success.
// The cube contains only the new decisions (plus the pinned PI constants);
// by Kleene monotonicity a base's earlier detection proofs survive any
// extension. A base conflict surfaces as untestable-under-base. generate
// undoes everything it assigned before it returns.
func (e *engine) generate(f *fault.Fault) (Cube, engineResult) {
	defer e.teardown(len(e.trail))
	if !e.setupFault(f) {
		return Cube{}, genUntestable
	}
	return e.search()
}

// search is the classical one-implication-at-a-time PODEM loop. The
// waves of a search that aborts are added to stats.abortedWaves.
func (e *engine) search() (Cube, engineResult) {
	start := e.stats.waves
	for {
		if e.backtracks > e.limit {
			e.stats.abortedWaves += e.stats.waves - start
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

// pin places every still-unassigned care bit of c without putting it on
// the decision stack, and settles them in one implication wave; a wave per
// bit would dominate the engine's wave count under dynamic compaction.
// Pinned bits survive every search on top of them until the caller undoes
// to a trail mark taken before the pin. The result is the fixpoint a wave
// per bit reaches: Kleene implication is monotone and confluent, so the
// closure of a set of root assignments is independent of application
// order and of whether a bit another bit already implies is written as a
// root or derived by the wave. For the same reason pinning a base before a
// fault is installed reaches the state that installing the fault first and
// pinning after it would. Cubes pinned together are mutually consistent by
// construction (they were jointly committed when earlier targets accepted
// them) and the frame-1/frame-2 good rails carry no fault-dependent state,
// so a bit can never arrive implied to the opposite value. Iteration order
// is free to be the map's: undo restores trail entries last first, so the
// unpinned state does not depend on it either.
func (e *engine) pin(c Cube) {
	placed := 0
	for idx, v := range c.State {
		f := e.d.Flops[idx]
		if rail(e.vals[e.d.Insts[f].Out], sh1) == logic.X {
			e.place(inputRef{isPI: false, idx: idx}, v)
			placed++
		}
	}
	for idx, v := range c.PIs {
		n := e.d.PIs[idx]
		if rail(e.vals[n], sh1) == logic.X {
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
