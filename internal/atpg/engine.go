// Package atpg implements deterministic test-pattern generation for
// transition delay faults: a two-frame PODEM engine supporting both
// launch-off-capture (the paper's method) and launch-off-shift, don't-care
// fill strategies (random / fill-0 / fill-1 / fill-adjacent — the Synopsys
// TetraMAX options the paper's procedure drives), per-block fault
// targeting, and a driver loop with parallel-pattern fault dropping.
//
// The engine works on the design twice without physically unrolling it:
// frame 1 is the initialization vector V1 (the scanned-in state plus the
// primary inputs, which are held constant across both frames per the
// paper), frame 2 is the launch/capture cycle whose flop state V2 derives
// from frame 1 through a transfer map (functional capture for LOC, chain
// shift for LOS). A slow-to-rise fault at net n requires n=0 in frame 1 and
// behaves as stuck-at-0 in frame 2; detection requires the frame-2 fault
// effect to reach the D input of a captured flop of the target domain.
package atpg

import (
	"cmp"
	"math/bits"
	"slices"

	"scap/internal/logic"
	"scap/internal/netlist"
	"scap/internal/parallel"
	"scap/internal/sim"
)

// LaunchMode selects how the V2 launch state derives from V1.
type LaunchMode uint8

// Launch modes.
const (
	LOC LaunchMode = iota // launch-off-capture (broadside)
	LOS                   // launch-off-shift (skewed load)
)

// String names the launch mode.
func (m LaunchMode) String() string {
	if m == LOS {
		return "LOS"
	}
	return "LOC"
}

// Cube is a generated test cube: the care bits of V1 and of the primary
// inputs; everything absent is a don't-care.
type Cube struct {
	State map[int]logic.V // flop index (design flop order) -> V1 care bit
	PIs   map[int]logic.V // PI index -> care bit
}

// engineResult is the disposition of one PODEM run.
type engineResult uint8

const (
	genSuccess engineResult = iota
	genUntestable
	genAborted
)

const (
	frame1 = 0
	frame2 = 1
)

// The engine's three rails share one byte per net, two bits each: the
// frame-1 value, the frame-2 good-machine value and the frame-2
// faulty-machine value. A gate evaluates one rail by reading its field
// (sim.Gate.EvalAt), and one trail entry restores all three rails of a
// net.
const (
	sh1 uint = 0 // frame-1 value
	sh2 uint = 2 // frame-2 good value
	shF uint = 4 // frame-2 faulty value

	// allX is the byte of a net whose three rails are X.
	allX = uint8(logic.X)<<sh1 | uint8(logic.X)<<sh2 | uint8(logic.X)<<shF
)

// rail returns the field at shift sh of the packed byte b.
func rail(b uint8, sh uint) logic.V { return logic.V(b >> sh & 3) }

// divergedTab[b] reports whether packed byte b carries a defined frame-2
// good/faulty difference.
var divergedTab = func() (t [256]bool) {
	for b := range t {
		g, f := rail(uint8(b), sh2), rail(uint8(b), shF)
		t[b] = g != logic.X && f != logic.X && g != f
	}
	return t
}()

// trailEnt records the byte net n held before a write; undo stores it
// back.
type trailEnt struct {
	net netlist.NetID
	old uint8
}

type inputRef struct {
	isPI bool
	idx  int // PI index or flop index
}

type decision struct {
	input     inputRef
	val       logic.V
	flipped   bool
	trailMark int
}

type objective struct {
	frame int
	net   netlist.NetID
	val   logic.V
}

// genStats tallies implication-engine work. Per-fault additive, so the
// totals summed over all worker engines at the end of a Run are
// independent of the worker count and of which worker ran which fault.
type genStats struct {
	waves        int64 // implication waves
	decisions    int64 // decisions committed to the stack
	backtracks   int64 // decision flips
	gateEvals    int64 // gates the search's waves evaluate
	abortedWaves int64 // waves of searches that end aborted
}

// tables is an engine's construction state: read only after newEngine and
// shared by clones.
type tables struct {
	s     *sim.Simulator
	d     *netlist.Design
	gates []sim.Gate // the simulator's gate rows; gates are named by position
	limit int        // backtracks before a fault is aborted

	// levels (by instance) and maxLevel serve the backtrace, which
	// descends into the shallowest X input and bounds its walk by the
	// depth.
	levels   []int32
	maxLevel int32

	// obsD marks the nets that feed the D pin of a target-domain flop: the
	// places a fault effect is captured.
	obsD []bool

	// xferSrc maps a flop to the frame-1 net its V2 output follows
	// (capture D-net for LOC, predecessor Q / scan-in for LOS); a flop
	// with xferSrc NoNet holds its V1 in frame 2. xferStart/xferQ is its
	// inverse by net, as a CSR list: the Q nets of the flops net n feeds
	// are xferQ[xferStart[n]:xferStart[n+1]].
	xferSrc   []netlist.NetID
	xferStart []int32
	xferQ     []netlist.NetID

	// instPos maps an instance to its gate position, or a flop to ^its
	// index into d.Flops.
	instPos []int32

	// finStart/fin is the gate-only fan-in list the read-region sweep
	// follows, a CSR row per gate position: fin[finStart[p]:finStart[p+1]]
	// holds the position q of every gate that drives an input of p, then
	// ^q where an input of p is the Q of a flop whose transfer source gate
	// q drives. A frame-2 read of that Q is a frame-1 read of q's output,
	// so ^q seeds the frame-1 region; position 0 encodes as ^0 = -1, apart
	// from every same-frame entry.
	finStart []int32
	fin      []int32

	decidablePI []bool // per PI index: usable as a decision variable
	piConst     map[int]logic.V

	// preferred marks, by position, the gates inside the blocks the run
	// targets: the D-frontier tries to keep propagation inside them (nil =
	// no preference).
	preferred []bool
}

// engine is the two-frame PODEM machine. One engine is reused across all
// faults of one (domain, mode) run; clone() gives each generation worker
// its own.
//
// Between faults an engine rests at all-X plus what the pinned primary-input
// constants (scan enable) imply; that state is committed at construction,
// so the trail is empty at rest and no fault re-implies it. Dynamic
// compaction pins a pattern's cube on top of the resting state, searches
// each secondary fault over it and undoes back to it (genOne).
type engine struct {
	tables

	vals  []uint8 // per net: the three rails, packed
	trail []trailEnt
	decs  []decision

	// per-fault state
	site  netlist.NetID // NoNet while no fault is installed
	stuck logic.V
	obs   []netlist.NetID // observable D nets (dom flops) in the cone

	// inCone holds the installed fault's frame-2 fanout cone as positions,
	// and reg1 and reg2 its read region per frame: the gates whose outputs
	// the search can read, closed under fan-in. buildRegion fills the
	// region at the search's first decision (assignInput) and sets
	// regionBuilt; from then on, waves evaluate only region gates.
	//
	// front holds every cone gate that has had a diverged input since the
	// fault was installed: a net's gate loads join it where the net
	// becomes diverged (the wave's cone branch, set2both at the site,
	// inject), and undo never removes them. It is a superset of the
	// D-frontier that frontierObjective filters. All four sets are empty
	// while no fault is installed.
	inCone, reg1, reg2, front posSet
	regionBuilt               bool

	// d1 and d2 hold the gates each frame's sweep has still to evaluate;
	// both are empty between waves.
	d1, d2 posSet

	backtracks int

	stats genStats

	// The dirty-set bounds, the trail header and stats are written on
	// every mark, write and wave, and a generation worker's clone is
	// allocated right after its original: the pad keeps 128 bytes between
	// these fields and the next allocation (DESIGN.md §8).
	_ parallel.Pad
}

// posSet is a set of gate positions, one bit each; lo and hi bound the
// members. A dirty set is drained by a sweep forward from its lowest
// mark, which clears bits as it goes and then resets the bounds; a cone,
// region or frontier set keeps its bits until clear.
type posSet struct {
	bits   []uint64
	lo, hi int
}

func newPosSet(n int) posSet {
	s := posSet{bits: make([]uint64, (n+63)/64)}
	s.reset()
	return s
}

// add inserts position p.
func (s *posSet) add(p int32) {
	s.bits[p>>6] |= 1 << uint(p&63)
	s.lo = min(s.lo, int(p))
	s.hi = max(s.hi, int(p))
}

// has reports whether position p is a member.
func (s *posSet) has(p int32) bool { return s.bits[p>>6]>>uint(p&63)&1 != 0 }

// mark adds the ascending positions loads, taking the bounds from the
// first and last.
func (s *posSet) mark(loads []int32) {
	if len(loads) == 0 {
		return
	}
	for _, p := range loads {
		s.bits[p>>6] |= 1 << uint(p&63)
	}
	s.lo = min(s.lo, int(loads[0]))
	s.hi = max(s.hi, int(loads[len(loads)-1]))
}

// markIn adds the ascending positions loads that region r holds, taking
// the bounds from the first and last of them.
func (s *posSet) markIn(loads []int32, r *posSet) {
	lo, hi := int32(-1), int32(-1)
	for _, p := range loads {
		if r.has(p) {
			s.bits[p>>6] |= 1 << uint(p&63)
			if lo < 0 {
				lo = p
			}
			hi = p
		}
	}
	if hi >= 0 {
		s.lo = min(s.lo, int(lo))
		s.hi = max(s.hi, int(hi))
	}
}

// reset empties the bounds once a sweep has cleared every bit.
func (s *posSet) reset() { s.lo, s.hi = len(s.bits)<<6, -1 }

// clear removes every member: it zeroes the words inside the bounds.
func (s *posSet) clear() {
	if s.lo <= s.hi {
		clear(s.bits[s.lo>>6 : s.hi>>6+1])
	}
	s.reset()
}

// blockSet marks floorplan blocks by index; nil is the empty set.
type blockSet []bool

func newBlockSet(numBlocks int, blocks []int) blockSet {
	s := make(blockSet, numBlocks)
	for _, b := range blocks {
		s[b] = true
	}
	return s
}

// has reports whether block b (possibly NoBlock) is in the set.
func (s blockSet) has(b int) bool { return b >= 0 && b < len(s) && s[b] }

// engineConfig parameterizes engine construction. The search itself is
// fully deterministic — no randomness enters between a (fault, base)
// pair and its cube.
type engineConfig struct {
	dom       int
	mode      LaunchMode
	limit     int                              // backtrack limit before aborting a fault
	excludePI map[int]bool                     // PI indexes never used as decisions (scan pins)
	constPI   map[int]logic.V                  // PI indexes pinned to a constant (scan enable)
	shiftPrev map[netlist.InstID]netlist.NetID // LOS: flop -> frame-1 source net
	prefer    blockSet                         // blocks to keep fault propagation inside
}

// newEngine builds an engine over the flat gate table of s.
func newEngine(s *sim.Simulator, cfg engineConfig) (*engine, error) {
	d := s.Design()
	lv, err := d.Levels()
	if err != nil {
		return nil, err
	}
	t := tables{
		s: s, d: d, gates: s.Gates(), limit: cfg.limit,
		levels:    lv,
		obsD:      make([]bool, d.NumNets()),
		xferSrc:   make([]netlist.NetID, d.NumInsts()),
		xferStart: make([]int32, d.NumNets()+1),
		instPos:   make([]int32, d.NumInsts()),
		finStart:  make([]int32, len(s.Gates())+1),
		piConst:   cfg.constPI,
	}
	for _, l := range lv {
		t.maxLevel = max(t.maxLevel, l)
	}
	for i := range t.xferSrc {
		t.xferSrc[i] = netlist.NoNet
	}
	for p := range t.gates {
		t.instPos[t.gates[p].ID()] = int32(p)
	}
	for i, f := range d.Flops {
		t.instPos[f] = ^int32(i)
		inst := d.Inst(f)
		if inst.Domain != cfg.dom {
			continue // holds
		}
		t.obsD[inst.In[0]] = true
		var src netlist.NetID
		switch cfg.mode {
		case LOC:
			src = inst.In[0] // functional capture from D
		case LOS:
			var ok bool
			src, ok = cfg.shiftPrev[f]
			if !ok {
				continue // holds
			}
		}
		t.xferSrc[f] = src
		t.xferStart[src+1]++
	}
	for n := 1; n < len(t.xferStart); n++ {
		t.xferStart[n] += t.xferStart[n-1]
	}
	t.xferQ = make([]netlist.NetID, t.xferStart[d.NumNets()])
	next := slices.Clone(t.xferStart)
	for _, f := range d.Flops {
		if src := t.xferSrc[f]; src != netlist.NoNet {
			t.xferQ[next[src]] = d.Inst(f).Out
			next[src]++
		}
	}
	arity := 0
	for p := range t.gates {
		arity += len(t.gates[p].Inputs())
	}
	t.fin = make([]int32, 0, arity)
	for p := range t.gates {
		in := t.gates[p].Inputs()
		row := len(t.fin)
		for k, n := range in {
			if q, ok := t.readSeed(n); ok && !slices.Contains(in[:k], n) {
				t.fin = append(t.fin, q)
			}
		}
		// Same-frame entries first: the frame-1 sweep stops at the first
		// transfer seed.
		slices.SortFunc(t.fin[row:], func(a, b int32) int { return cmp.Compare(b, a) })
		t.finStart[p+1] = int32(len(t.fin))
	}
	t.decidablePI = make([]bool, len(d.PIs))
	for i := range t.decidablePI {
		t.decidablePI[i] = !cfg.excludePI[i]
		if _, pinned := cfg.constPI[i]; pinned {
			t.decidablePI[i] = false
		}
	}
	if cfg.prefer != nil {
		t.preferred = make([]bool, len(t.gates))
		for p := range t.gates {
			t.preferred[p] = cfg.prefer.has(d.Inst(t.gates[p].ID()).Block)
		}
	}
	e := &engine{tables: t}
	e.allocState()
	return e, nil
}

// readSeed returns the fan-in entry (see fin) for a read of net n: the
// position of the gate driving n, or ^q when n is the Q of a flop whose
// transfer source gate q drives. It returns false when n's value is only
// ever placed, never implied: a primary input, a flop that holds, or a
// flop whose transfer source is itself placed.
func (t *tables) readSeed(n netlist.NetID) (int32, bool) {
	drv := t.d.Nets[n].Driver
	if drv == netlist.NoInst {
		return 0, false
	}
	if p := t.instPos[drv]; p >= 0 {
		return p, true
	}
	src := t.xferSrc[drv]
	if src == netlist.NoNet {
		return 0, false
	}
	if sd := t.d.Nets[src].Driver; sd != netlist.NoInst && t.instPos[sd] >= 0 {
		return ^t.instPos[sd], true
	}
	return 0, false
}

// allocState allocates the mutable search state of a new engine and brings
// it to rest: every net X except what the pinned primary-input constants
// imply. The trail is then cleared, so undoing to mark 0 returns to rest.
// The constants' wave is construction work and is not counted.
func (e *engine) allocState() {
	e.vals = make([]uint8, e.d.NumNets())
	for i := range e.vals {
		e.vals[i] = allX
	}
	n := len(e.gates)
	e.inCone, e.reg1, e.reg2, e.front = newPosSet(n), newPosSet(n), newPosSet(n), newPosSet(n)
	e.d1, e.d2 = newPosSet(n), newPosSet(n)
	e.site = netlist.NoNet
	for pi, v := range e.piConst {
		e.place(inputRef{isPI: true, idx: pi}, v)
	}
	e.wave()
	e.trail = e.trail[:0]
	e.stats = genStats{}
}

// --- value setting with trail -------------------------------------------

// write stores byte b for net n, trailing the old byte.
func (e *engine) write(n netlist.NetID, b uint8) {
	e.trail = append(e.trail, trailEnt{net: n, old: e.vals[n]})
	e.vals[n] = b
}

// set writes v into the rail at shift sh of net n.
func (e *engine) set(sh uint, n netlist.NetID, v logic.V) {
	old := e.vals[n]
	if b := old&^(3<<sh) | uint8(v)<<sh; b != old {
		e.write(n, b)
	}
}

func (e *engine) undoTo(mark int) {
	for i := len(e.trail) - 1; i >= mark; i-- {
		e.vals[e.trail[i].net] = e.trail[i].old
	}
	e.trail = e.trail[:mark]
}

// --- event-driven two-frame propagation ----------------------------------

// schedule1 marks net n's frame-1 gate loads (only those in the
// frame-1 read region while a fault is installed) and launches its
// frame-1 value into frame 2 through the flops it feeds.
func (e *engine) schedule1(n netlist.NetID) {
	if e.site == netlist.NoNet {
		e.d1.mark(e.s.GateLoads(n))
	} else {
		e.d1.markIn(e.s.GateLoads(n), &e.reg1)
	}
	for _, q := range e.xferQ[e.xferStart[n]:e.xferStart[n+1]] {
		e.set2both(q, rail(e.vals[n], sh1))
	}
}

// set2both updates the frame-2 good value (and the faulty value except at
// the fault site, which stays stuck) as one trail entry, and marks the
// net's gate loads (only those in the frame-2 read region while a fault
// is installed). At the site, where the two values can differ, a
// diverged result also adds the loads to the frontier set.
func (e *engine) set2both(n netlist.NetID, v logic.V) {
	old := e.vals[n]
	if rail(old, sh2) == v {
		return
	}
	b := old&^(3<<sh2) | uint8(v)<<sh2
	loads := e.s.GateLoads(n)
	if n != e.site {
		b = b&^(3<<shF) | uint8(v)<<shF
	} else if divergedTab[b] {
		e.front.mark(loads)
	}
	e.write(n, b)
	if e.site == netlist.NoNet {
		e.d2.mark(loads)
	} else {
		e.d2.markIn(loads, &e.reg2)
	}
}

// wave drains frame 1, then frame 2. Each sweep evaluates the marked gate
// positions in ascending order: a gate's loads sit at higher positions,
// so every marked gate runs once, with final inputs; frame 1 feeds frame
// 2 (through the transfer) but never the reverse. While a fault is
// installed, marks land only inside its read region (schedule1,
// set2both), so the wave implies exactly the values the search can read;
// the inject wave, which runs before the region is built, marks only
// cone gates.
//
// Implication only refines X to 0 or 1, and Kleene logic is monotone, so
// a gate whose output on the swept rail is already 0 or 1 cannot change
// and is skipped. Cone gates are the exception: installing a fault flips
// the faulty rail at the site, the one write that is not a refinement, so
// a cone gate always evaluates both frame-2 rails, and a diverged result
// adds its loads to the frontier set. The gates evaluated are added to
// stats.gateEvals once per wave.
func (e *engine) wave() {
	gates, vals, cone := e.gates, e.vals, e.inCone.bits
	evals := 0
	d := &e.d1
	for w := d.lo >> 6; w <= d.hi>>6; w++ {
		// Marks made while this word drains land at higher positions,
		// so the lowest set bit is always the next gate in order.
		for d.bits[w] != 0 {
			b := bits.TrailingZeros64(d.bits[w])
			d.bits[w] &^= 1 << uint(b)
			g := &gates[w<<6|b]
			out := g.Out()
			if rail(vals[out], sh1) != logic.X {
				continue
			}
			evals++
			if v := g.EvalAt(vals, sh1); v != logic.X {
				e.set(sh1, out, v)
				e.schedule1(out)
			}
		}
	}
	d.reset()
	d = &e.d2
	for w := d.lo >> 6; w <= d.hi>>6; w++ {
		for d.bits[w] != 0 {
			b := bits.TrailingZeros64(d.bits[w])
			d.bits[w] &^= 1 << uint(b)
			g := &gates[w<<6|b]
			out := g.Out()
			if cone[w]>>uint(b)&1 == 0 {
				// Outside the fault's cone no input carries the fault
				// effect, so the faulty machine equals the good one.
				if rail(vals[out], sh2) == logic.X {
					evals++
					if v := g.EvalAt(vals, sh2); v != logic.X {
						e.set2both(out, v)
					}
				}
				continue
			}
			// A cone gate never drives the site: the logic is acyclic.
			// Its loads are cone gates, all inside the region.
			evals++
			old := vals[out]
			nb := old&^(3<<sh2|3<<shF) | uint8(g.EvalAt(vals, sh2))<<sh2 | uint8(g.EvalAt(vals, shF))<<shF
			if nb != old {
				e.write(out, nb)
				loads := e.s.GateLoads(out)
				d.mark(loads)
				if divergedTab[nb] {
					e.front.mark(loads)
				}
			}
		}
	}
	d.reset()
	e.stats.gateEvals += int64(evals)
}

// place writes one input-variable value into both frames and schedules
// its fanout without settling it — callers batch several placements into
// one wave (pin, allocState) or settle immediately (assignInput).
func (e *engine) place(in inputRef, v logic.V) {
	if in.isPI {
		n := e.d.PIs[in.idx]
		e.set(sh1, n, v)
		e.schedule1(n)
		e.set2both(n, v)
	} else {
		f := e.d.Flops[in.idx]
		q := e.d.Insts[f].Out
		e.set(sh1, q, v)
		e.schedule1(q)
		if e.xferSrc[f] == netlist.NoNet { // holds V1 in frame 2
			e.set2both(q, v)
		}
	}
}

// assignInput applies one decision value to an input variable and
// propagates both frames. The first one made while a fault is installed
// builds the fault's read region, which the waves of a decision read.
func (e *engine) assignInput(in inputRef, v logic.V) {
	if e.site != netlist.NoNet && !e.regionBuilt {
		e.buildRegion()
	}
	e.place(in, v)
	e.stats.waves++
	e.wave()
}

// clone returns an engine for another generation worker: the construction
// tables (gate rows, levels, transfer maps, fan-in list, PI policies,
// block preferences) are shared, while every mutable search structure
// (rails, trail, decision stack, cone, region and frontier sets, dirty
// sets) is private. Every engine rests in the same state between faults
// (generate undoes to the mark it started from, genOne unpins its base),
// so a clone produces bit-identical cubes to its original for any
// (fault, base) pair — the property the epoch scheduler rests on.
func (e *engine) clone() *engine {
	c := &engine{tables: e.tables}
	c.allocState()
	return c
}
