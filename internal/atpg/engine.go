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
	"scap/internal/cell"
	"scap/internal/logic"
	"scap/internal/netlist"
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

type trailEnt struct {
	arr uint8 // 0: val1, 1: val2, 2: valf
	net netlist.NetID
	old logic.V
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
	waves      int64 // implication waves
	decisions  int64 // decisions committed to the stack
	backtracks int64 // decision flips
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
	d      *netlist.Design
	dom    int
	mode   LaunchMode
	levels []int32

	val1 []logic.V // frame-1 net values
	val2 []logic.V // frame-2 good-machine values
	valf []logic.V // frame-2 faulty-machine values

	trail []trailEnt
	decs  []decision

	// Construction state below, up to the per-fault state, is read-only
	// after newEngine and shared by clones.

	// combLoads lists each net's combinational loads. Flop pins are left
	// out: a flop's inputs are consumed by the frame transfer, not by
	// propagation.
	combLoads [][]netlist.InstID
	// topo is the design's TopoOrder and topoPos its inverse, by instance.
	topo    []netlist.InstID
	topoPos []int32
	// obsD marks the nets that feed the D pin of a target-domain flop: the
	// places a fault effect is captured.
	obsD []bool

	// xfer maps a frame-1 net to the Q nets of the flops whose V2 output
	// follows it (capture D-net for LOC, predecessor Q / scan-in for LOS);
	// xferSrc is the inverse by flop, used by backward traversal. A flop
	// with xferSrc NoNet holds its V1 in frame 2.
	xfer    [][]netlist.NetID
	xferSrc []netlist.NetID

	flopIdx []int32 // by instance: index into d.Flops, -1 for gates

	decidablePI []bool // per PI index: usable as a decision variable
	piConst     map[int]logic.V

	// prefer marks the blocks the run is targeting: the D-frontier tries
	// to keep propagation inside them (nil = no preference).
	prefer blockSet

	// per-fault state
	site  netlist.NetID // NoNet while no fault is installed
	stuck logic.V
	cone  []netlist.InstID // frame-2 fanout cone, topo order
	obs   []netlist.NetID  // observable D nets (dom flops) in the cone

	// coneMark stamps the gates of the installed fault's cone: a gate is
	// in the cone when its stamp equals gen, so starting a new cone is a
	// single counter bump. The stamps of the last fault stay after
	// teardown; with no fault installed the faulty rail equals the good
	// one on every net, so evaluating it on a stale cone is redundant but
	// exact.
	coneMark []uint32
	gen      uint32
	conePos  []int32 // scratch for sorting the cone into topo order

	// propagation buckets, one per level and frame
	b1, b2   [][]netlist.InstID
	q1, q2   []bool
	maxLevel int32

	backtracks int
	limit      int

	stats genStats
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

func newEngine(d *netlist.Design, cfg engineConfig) (*engine, error) {
	lv, err := d.Levels()
	if err != nil {
		return nil, err
	}
	topo, err := d.TopoOrder()
	if err != nil {
		return nil, err
	}
	var ml int32
	for _, l := range lv {
		if l > ml {
			ml = l
		}
	}
	e := &engine{
		d: d, dom: cfg.dom, mode: cfg.mode, levels: lv,
		topo:     topo,
		topoPos:  make([]int32, d.NumInsts()),
		obsD:     make([]bool, d.NumNets()),
		xfer:     make([][]netlist.NetID, d.NumNets()),
		xferSrc:  make([]netlist.NetID, d.NumInsts()),
		flopIdx:  make([]int32, d.NumInsts()),
		piConst:  cfg.constPI,
		maxLevel: ml,
		limit:    cfg.limit,
		prefer:   cfg.prefer,
	}
	for pos, id := range topo {
		e.topoPos[id] = int32(pos)
	}
	e.combLoads = make([][]netlist.InstID, d.NumNets())
	for i := range d.Nets {
		for _, ld := range d.Nets[i].Loads {
			inst := &d.Insts[ld.Inst]
			if !inst.IsFlop() {
				e.combLoads[i] = append(e.combLoads[i], ld.Inst)
			} else if ld.Pin == 0 && inst.Domain == cfg.dom {
				e.obsD[i] = true
			}
		}
	}
	for i := range e.xferSrc {
		e.xferSrc[i] = netlist.NoNet
		e.flopIdx[i] = -1
	}
	for i, f := range d.Flops {
		e.flopIdx[f] = int32(i)
		inst := d.Inst(f)
		if inst.Domain != cfg.dom {
			continue // holds
		}
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
		e.xfer[src] = append(e.xfer[src], inst.Out)
		e.xferSrc[f] = src
	}
	e.decidablePI = make([]bool, len(d.PIs))
	for i := range e.decidablePI {
		e.decidablePI[i] = !cfg.excludePI[i]
		if _, pinned := cfg.constPI[i]; pinned {
			e.decidablePI[i] = false
		}
	}
	e.allocState()
	return e, nil
}

// allocState allocates the mutable search state of a new engine and brings
// it to rest: every net X except what the pinned primary-input constants
// imply. The trail is then cleared, so undoing to mark 0 returns to rest.
// The constants' wave is construction work and is not counted.
func (e *engine) allocState() {
	n := e.d.NumNets()
	e.val1 = make([]logic.V, n)
	e.val2 = make([]logic.V, n)
	e.valf = make([]logic.V, n)
	for i := range e.val1 {
		e.val1[i], e.val2[i], e.valf[i] = logic.X, logic.X, logic.X
	}
	e.coneMark = make([]uint32, e.d.NumInsts())
	e.b1 = make([][]netlist.InstID, e.maxLevel+2)
	e.b2 = make([][]netlist.InstID, e.maxLevel+2)
	e.q1 = make([]bool, e.d.NumInsts())
	e.q2 = make([]bool, e.d.NumInsts())
	e.site = netlist.NoNet
	for pi, v := range e.piConst {
		e.place(inputRef{isPI: true, idx: pi}, v)
	}
	e.wave()
	e.trail = e.trail[:0]
}

// --- value setting with trail -------------------------------------------

func (e *engine) set(arr uint8, n netlist.NetID, v logic.V) {
	var slot *logic.V
	switch arr {
	case 0:
		slot = &e.val1[n]
	case 1:
		slot = &e.val2[n]
	default:
		slot = &e.valf[n]
	}
	if *slot == v {
		return
	}
	e.trail = append(e.trail, trailEnt{arr: arr, net: n, old: *slot})
	*slot = v
}

func (e *engine) undoTo(mark int) {
	for len(e.trail) > mark {
		t := e.trail[len(e.trail)-1]
		e.trail = e.trail[:len(e.trail)-1]
		switch t.arr {
		case 0:
			e.val1[t.net] = t.old
		case 1:
			e.val2[t.net] = t.old
		default:
			e.valf[t.net] = t.old
		}
	}
}

// --- event-driven two-frame propagation ----------------------------------

func (e *engine) schedule1(n netlist.NetID) {
	for _, g := range e.combLoads[n] {
		if !e.q1[g] {
			e.q1[g] = true
			e.b1[e.levels[g]] = append(e.b1[e.levels[g]], g)
		}
	}
	// Frame boundary: flops fed from this net launch its value in frame 2.
	for _, q := range e.xfer[n] {
		e.set2both(q, e.val1[n])
	}
}

func (e *engine) schedule2(n netlist.NetID) {
	for _, g := range e.combLoads[n] {
		if !e.q2[g] {
			e.q2[g] = true
			e.b2[e.levels[g]] = append(e.b2[e.levels[g]], g)
		}
	}
}

// set2both updates the frame-2 good value (and the faulty value except at
// the fault site, which stays stuck) and schedules fanout.
func (e *engine) set2both(n netlist.NetID, v logic.V) {
	if e.val2[n] == v {
		return
	}
	e.set(1, n, v)
	if n != e.site {
		e.set(2, n, v)
	}
	e.schedule2(n)
}

// wave drains frame-1 then frame-2 buckets in level order. Kleene logic is
// monotone under input refinement, so one level-ordered pass settles each
// wave: levels strictly increase along combinational edges, so a gate's
// fanout always sits in a later bucket of the same frame, and frame 1
// feeds frame 2 (through the transfer) but never the reverse.
func (e *engine) wave() {
	for lv := int32(1); lv <= e.maxLevel; lv++ {
		bucket := e.b1[lv]
		e.b1[lv] = bucket[:0]
		for _, g := range bucket {
			e.q1[g] = false
			inst := &e.d.Insts[g]
			if v := cell.EvalPacked(inst.Kind, packIndex(e.val1, inst.In)); v != e.val1[inst.Out] {
				e.set(0, inst.Out, v)
				e.schedule1(inst.Out)
			}
		}
	}
	for lv := int32(1); lv <= e.maxLevel; lv++ {
		bucket := e.b2[lv]
		e.b2[lv] = bucket[:0]
		for _, g := range bucket {
			e.q2[g] = false
			inst := &e.d.Insts[g]
			vG := cell.EvalPacked(inst.Kind, packIndex(e.val2, inst.In))
			if e.coneMark[g] != e.gen {
				// Outside the fault's cone no input carries the fault
				// effect, so the faulty machine equals the good one.
				e.set2both(inst.Out, vG)
				continue
			}
			if vG != e.val2[inst.Out] {
				e.set(1, inst.Out, vG)
				e.schedule2(inst.Out)
			}
			// A cone gate never drives the site: the logic is acyclic.
			if vF := cell.EvalPacked(inst.Kind, packIndex(e.valf, inst.In)); vF != e.valf[inst.Out] {
				e.set(2, inst.Out, vF)
				e.schedule2(inst.Out)
			}
		}
	}
}

// packIndex packs the values of the nets in, two bits per pin, into the
// index cell.EvalPacked takes.
func packIndex(vals []logic.V, in []netlist.NetID) uint32 {
	idx := uint32(0)
	for p, n := range in {
		idx |= uint32(vals[n]) << (2 * uint(p))
	}
	return idx
}

// place writes one input-variable value into both frames and schedules
// its fanout without settling it — callers batch several placements into
// one wave (pin, allocState) or settle immediately (assignInput).
func (e *engine) place(in inputRef, v logic.V) {
	if in.isPI {
		n := e.d.PIs[in.idx]
		e.set(0, n, v)
		e.schedule1(n)
		e.set2both(n, v)
	} else {
		f := e.d.Flops[in.idx]
		q := e.d.Insts[f].Out
		e.set(0, q, v)
		e.schedule1(q)
		if e.xferSrc[f] == netlist.NoNet { // holds V1 in frame 2
			e.set2both(q, v)
		}
	}
}

// assignInput applies one decision value to an input variable and
// propagates both frames.
func (e *engine) assignInput(in inputRef, v logic.V) {
	e.place(in, v)
	e.stats.waves++
	e.wave()
}

// clone returns an engine for another generation worker: all construction
// state that is read-only after newEngine (design, levels, load lists,
// transfer maps, PI policies, block preferences) is shared, while every
// mutable search structure (value arrays, trail, decision stack, cone
// stamps, buckets) is private. Every engine rests in the same state
// between faults (generate undoes to the mark it started from, genOne
// unpins its base), so a clone produces bit-identical cubes to its original
// for any (fault, base) pair — the property the epoch scheduler rests on.
func (e *engine) clone() *engine {
	c := &engine{
		d: e.d, dom: e.dom, mode: e.mode, levels: e.levels,
		combLoads:   e.combLoads,
		topo:        e.topo,
		topoPos:     e.topoPos,
		obsD:        e.obsD,
		xfer:        e.xfer,
		xferSrc:     e.xferSrc,
		flopIdx:     e.flopIdx,
		decidablePI: e.decidablePI,
		piConst:     e.piConst,
		prefer:      e.prefer,
		maxLevel:    e.maxLevel,
		limit:       e.limit,
	}
	c.allocState()
	return c
}
