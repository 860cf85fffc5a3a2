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

	// xfer maps a frame-1 net to the flops whose V2 output follows it
	// (capture D-net for LOC, predecessor Q / scan-in for LOS); xferSrc is
	// the inverse used by backward traversal.
	xfer    map[netlist.NetID][]netlist.InstID
	xferSrc map[netlist.InstID]netlist.NetID
	hold    map[netlist.InstID]bool // flops that keep V1 in frame 2

	flopIdx map[netlist.InstID]int

	decidablePI []bool // per PI index: usable as a decision variable
	piConst     map[int]logic.V

	// per-fault state
	site  netlist.NetID
	stuck logic.V
	cone  []netlist.InstID // frame-2 fanout cone, topo order
	obs   []netlist.NetID  // observable D nets (dom flops) in the cone

	// obsSeen/obsGen dedup observable endpoints in setupFault: a net is
	// "seen this fault" when its stamp equals the current generation, so
	// resetting between faults is a single counter bump.
	obsSeen []uint32
	obsGen  uint32

	// propagation buckets, one per level and frame
	b1, b2   [][]netlist.InstID
	q1, q2   []bool
	maxLevel int32

	backtracks int
	limit      int

	// prefer marks the blocks the run is targeting: the D-frontier tries
	// to keep propagation inside them (nil = no preference).
	prefer map[int]bool

	stats genStats
}

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
	prefer    map[int]bool                     // blocks to keep fault propagation inside
}

func newEngine(d *netlist.Design, cfg engineConfig) (*engine, error) {
	lv, err := d.Levels()
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
		val1:     make([]logic.V, d.NumNets()),
		val2:     make([]logic.V, d.NumNets()),
		valf:     make([]logic.V, d.NumNets()),
		obsSeen:  make([]uint32, d.NumNets()),
		xfer:     make(map[netlist.NetID][]netlist.InstID),
		xferSrc:  make(map[netlist.InstID]netlist.NetID),
		hold:     make(map[netlist.InstID]bool),
		flopIdx:  make(map[netlist.InstID]int, len(d.Flops)),
		piConst:  cfg.constPI,
		maxLevel: ml,
		limit:    cfg.limit,
		prefer:   cfg.prefer,
	}
	for i := range e.val1 {
		e.val1[i], e.val2[i], e.valf[i] = logic.X, logic.X, logic.X
	}
	for i, f := range d.Flops {
		e.flopIdx[f] = i
		inst := d.Inst(f)
		if inst.Domain != cfg.dom {
			e.hold[f] = true
			continue
		}
		var src netlist.NetID
		switch cfg.mode {
		case LOC:
			src = inst.In[0] // functional capture from D
		case LOS:
			var ok bool
			src, ok = cfg.shiftPrev[f]
			if !ok {
				e.hold[f] = true
				continue
			}
		}
		e.xfer[src] = append(e.xfer[src], f)
		e.xferSrc[f] = src
	}
	e.decidablePI = make([]bool, len(d.PIs))
	for i := range e.decidablePI {
		e.decidablePI[i] = !cfg.excludePI[i]
		if _, pinned := cfg.constPI[i]; pinned {
			e.decidablePI[i] = false
		}
	}
	e.b1 = make([][]netlist.InstID, ml+2)
	e.b2 = make([][]netlist.InstID, ml+2)
	e.q1 = make([]bool, d.NumInsts())
	e.q2 = make([]bool, d.NumInsts())
	return e, nil
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
	for _, ld := range e.d.Nets[n].Loads {
		inst := &e.d.Insts[ld.Inst]
		if inst.IsFlop() || e.q1[ld.Inst] {
			continue
		}
		e.q1[ld.Inst] = true
		e.b1[e.levels[ld.Inst]] = append(e.b1[e.levels[ld.Inst]], ld.Inst)
	}
	// Frame boundary: flops fed from this net launch its value in frame 2.
	if flops, ok := e.xfer[n]; ok {
		v := e.val1[n]
		for _, f := range flops {
			e.set2both(e.d.Insts[f].Out, v)
		}
	}
}

func (e *engine) schedule2(n netlist.NetID) {
	for _, ld := range e.d.Nets[n].Loads {
		inst := &e.d.Insts[ld.Inst]
		if inst.IsFlop() || e.q2[ld.Inst] {
			continue
		}
		e.q2[ld.Inst] = true
		e.b2[e.levels[ld.Inst]] = append(e.b2[e.levels[ld.Inst]], ld.Inst)
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
// wave.
func (e *engine) wave() {
	var buf [4]logic.V
	for lv := int32(1); lv <= e.maxLevel; lv++ {
		bucket := e.b1[lv]
		e.b1[lv] = bucket[:0]
		for _, g := range bucket {
			e.q1[g] = false
			inst := &e.d.Insts[g]
			in := buf[:len(inst.In)]
			for p, n := range inst.In {
				in[p] = e.val1[n]
			}
			v := cell.Eval(inst.Kind, in)
			if v != e.val1[inst.Out] {
				e.set(0, inst.Out, v)
				e.schedule1(inst.Out)
			}
		}
	}
	var buf2 [4]logic.V
	for lv := int32(1); lv <= e.maxLevel; lv++ {
		bucket := e.b2[lv]
		e.b2[lv] = bucket[:0]
		for _, g := range bucket {
			e.q2[g] = false
			inst := &e.d.Insts[g]
			in := buf[:len(inst.In)]
			inF := buf2[:len(inst.In)]
			for p, n := range inst.In {
				in[p] = e.val2[n]
				inF[p] = e.valf[n]
			}
			vG := cell.Eval(inst.Kind, in)
			vF := cell.Eval(inst.Kind, inF)
			if vG != e.val2[inst.Out] {
				e.set(1, inst.Out, vG)
				e.schedule2(inst.Out)
			}
			if inst.Out != e.site && vF != e.valf[inst.Out] {
				e.set(2, inst.Out, vF)
				e.schedule2(inst.Out)
			}
		}
	}
	// Frame-2 updates can re-populate earlier levels only via the frame
	// boundary, which happens in frame-1 scheduling; within frame 2 the
	// graph is acyclic and level-ordered, but a second pass is needed when
	// good and faulty values interleave scheduling. Drain until stable.
	for e.dirty2() {
		var buf3 [4]logic.V
		for lv := int32(1); lv <= e.maxLevel; lv++ {
			bucket := e.b2[lv]
			e.b2[lv] = bucket[:0]
			for _, g := range bucket {
				e.q2[g] = false
				inst := &e.d.Insts[g]
				in := buf[:len(inst.In)]
				inF := buf3[:len(inst.In)]
				for p, n := range inst.In {
					in[p] = e.val2[n]
					inF[p] = e.valf[n]
				}
				vG := cell.Eval(inst.Kind, in)
				vF := cell.Eval(inst.Kind, inF)
				if vG != e.val2[inst.Out] {
					e.set(1, inst.Out, vG)
					e.schedule2(inst.Out)
				}
				if inst.Out != e.site && vF != e.valf[inst.Out] {
					e.set(2, inst.Out, vF)
					e.schedule2(inst.Out)
				}
			}
		}
	}
}

func (e *engine) dirty2() bool {
	for lv := int32(1); lv <= e.maxLevel; lv++ {
		if len(e.b2[lv]) > 0 {
			return true
		}
	}
	return false
}

// place writes one input-variable value into both frames and schedules
// its fanout without settling it — callers batch several placements into
// one wave (applyBaseBatch) or settle immediately (assignInput).
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
		if e.hold[f] {
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
// state that is read-only after newEngine (design, levels, transfer maps,
// PI policies, block preferences) is shared, while every mutable search
// structure (value arrays, trail, decision stack, buckets) is
// private. Engines are stateless between faults (teardown restores all-X),
// so a clone produces bit-identical cubes to its original for any
// (fault, base) pair — the property the epoch scheduler rests on.
func (e *engine) clone() *engine {
	c := &engine{
		d: e.d, dom: e.dom, mode: e.mode, levels: e.levels,
		val1:        make([]logic.V, len(e.val1)),
		val2:        make([]logic.V, len(e.val2)),
		valf:        make([]logic.V, len(e.valf)),
		obsSeen:     make([]uint32, len(e.obsSeen)),
		xfer:        e.xfer,
		xferSrc:     e.xferSrc,
		hold:        e.hold,
		flopIdx:     e.flopIdx,
		decidablePI: e.decidablePI,
		piConst:     e.piConst,
		maxLevel:    e.maxLevel,
		limit:       e.limit,
		prefer:      e.prefer,
	}
	for i := range c.val1 {
		c.val1[i], c.val2[i], c.valf[i] = logic.X, logic.X, logic.X
	}
	c.b1 = make([][]netlist.InstID, e.maxLevel+2)
	c.b2 = make([][]netlist.InstID, e.maxLevel+2)
	c.q1 = make([]bool, e.d.NumInsts())
	c.q2 = make([]bool, e.d.NumInsts())
	return c
}
