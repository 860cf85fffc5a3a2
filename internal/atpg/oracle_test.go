package atpg

import (
	"fmt"
	"math/rand"
	"testing"

	"scap/internal/cell"
	"scap/internal/fault"
	"scap/internal/logic"
	"scap/internal/netlist"
)

// This file keeps the implication wave that the packed-rail engine
// replaced, as the oracle the engine is checked against. The reference
// reads only the netlist records (d.Insts, d.Nets and their Loads, levels),
// keeps three separate rail slices and a per-rail trail, and drains
// per-level buckets with a queued flag per gate and frame. It evaluates
// every scheduled gate, settled or not, so it shares no table, sweep or
// skip with the engine.

// refTrail records one rail write of the reference.
type refTrail struct {
	arr uint8 // 0: val1, 1: val2, 2: valf
	net netlist.NetID
	old logic.V
}

// refEngine is the level-bucket, struct-walking two-frame implication
// machine: rails, trail, transfer and fault cone, without the search.
type refEngine struct {
	d        *netlist.Design
	levels   []int32
	maxLevel int32

	val1, val2, valf []logic.V
	trail            []refTrail

	combLoads [][]netlist.InstID
	xfer      [][]netlist.NetID
	xferSrc   []netlist.NetID

	site     netlist.NetID
	coneMark []uint32 // by instance
	gen      uint32

	b1, b2 [][]netlist.InstID
	q1, q2 []bool
}

func newRefEngine(d *netlist.Design, cfg engineConfig) *refEngine {
	lv, err := d.Levels()
	if err != nil {
		panic(err)
	}
	r := &refEngine{
		d: d, levels: lv,
		val1:      make([]logic.V, d.NumNets()),
		val2:      make([]logic.V, d.NumNets()),
		valf:      make([]logic.V, d.NumNets()),
		combLoads: make([][]netlist.InstID, d.NumNets()),
		xfer:      make([][]netlist.NetID, d.NumNets()),
		xferSrc:   make([]netlist.NetID, d.NumInsts()),
		site:      netlist.NoNet,
		coneMark:  make([]uint32, d.NumInsts()),
		q1:        make([]bool, d.NumInsts()),
		q2:        make([]bool, d.NumInsts()),
	}
	for _, l := range lv {
		r.maxLevel = max(r.maxLevel, l)
	}
	r.b1 = make([][]netlist.InstID, r.maxLevel+2)
	r.b2 = make([][]netlist.InstID, r.maxLevel+2)
	for i := range r.val1 {
		r.val1[i], r.val2[i], r.valf[i] = logic.X, logic.X, logic.X
	}
	for i := range d.Nets {
		for _, ld := range d.Nets[i].Loads {
			if !d.Insts[ld.Inst].IsFlop() {
				r.combLoads[i] = append(r.combLoads[i], ld.Inst)
			}
		}
	}
	for i := range r.xferSrc {
		r.xferSrc[i] = netlist.NoNet
	}
	for _, f := range d.Flops {
		inst := d.Inst(f)
		if inst.Domain != cfg.dom {
			continue
		}
		src := inst.In[0]
		if cfg.mode == LOS {
			var ok bool
			if src, ok = cfg.shiftPrev[f]; !ok {
				continue
			}
		}
		r.xfer[src] = append(r.xfer[src], inst.Out)
		r.xferSrc[f] = src
	}
	for pi, v := range cfg.constPI {
		r.place(inputRef{isPI: true, idx: pi}, v)
	}
	r.wave()
	r.trail = r.trail[:0]
	return r
}

func (r *refEngine) set(arr uint8, n netlist.NetID, v logic.V) {
	var slot *logic.V
	switch arr {
	case 0:
		slot = &r.val1[n]
	case 1:
		slot = &r.val2[n]
	default:
		slot = &r.valf[n]
	}
	if *slot == v {
		return
	}
	r.trail = append(r.trail, refTrail{arr: arr, net: n, old: *slot})
	*slot = v
}

func (r *refEngine) undoTo(mark int) {
	for len(r.trail) > mark {
		t := r.trail[len(r.trail)-1]
		r.trail = r.trail[:len(r.trail)-1]
		switch t.arr {
		case 0:
			r.val1[t.net] = t.old
		case 1:
			r.val2[t.net] = t.old
		default:
			r.valf[t.net] = t.old
		}
	}
}

func (r *refEngine) schedule1(n netlist.NetID) {
	for _, g := range r.combLoads[n] {
		if !r.q1[g] {
			r.q1[g] = true
			r.b1[r.levels[g]] = append(r.b1[r.levels[g]], g)
		}
	}
	for _, q := range r.xfer[n] {
		r.set2both(q, r.val1[n])
	}
}

func (r *refEngine) schedule2(n netlist.NetID) {
	for _, g := range r.combLoads[n] {
		if !r.q2[g] {
			r.q2[g] = true
			r.b2[r.levels[g]] = append(r.b2[r.levels[g]], g)
		}
	}
}

func (r *refEngine) set2both(n netlist.NetID, v logic.V) {
	if r.val2[n] == v {
		return
	}
	r.set(1, n, v)
	if n != r.site {
		r.set(2, n, v)
	}
	r.schedule2(n)
}

// eval is the gate's output over one rail, through cell.Eval.
func refEval(inst *netlist.Instance, vals []logic.V) logic.V {
	var buf [4]logic.V
	in := buf[:len(inst.In)]
	for p, n := range inst.In {
		in[p] = vals[n]
	}
	return cell.Eval(inst.Kind, in)
}

// wave drains the frame-1, then the frame-2 buckets in level order.
func (r *refEngine) wave() {
	for lv := int32(1); lv <= r.maxLevel; lv++ {
		bucket := r.b1[lv]
		r.b1[lv] = bucket[:0]
		for _, g := range bucket {
			r.q1[g] = false
			inst := &r.d.Insts[g]
			if v := refEval(inst, r.val1); v != r.val1[inst.Out] {
				r.set(0, inst.Out, v)
				r.schedule1(inst.Out)
			}
		}
	}
	for lv := int32(1); lv <= r.maxLevel; lv++ {
		bucket := r.b2[lv]
		r.b2[lv] = bucket[:0]
		for _, g := range bucket {
			r.q2[g] = false
			inst := &r.d.Insts[g]
			vG := refEval(inst, r.val2)
			if r.coneMark[g] != r.gen {
				r.set2both(inst.Out, vG)
				continue
			}
			if vG != r.val2[inst.Out] {
				r.set(1, inst.Out, vG)
				r.schedule2(inst.Out)
			}
			if vF := refEval(inst, r.valf); vF != r.valf[inst.Out] {
				r.set(2, inst.Out, vF)
				r.schedule2(inst.Out)
			}
		}
	}
}

func (r *refEngine) place(in inputRef, v logic.V) {
	if in.isPI {
		n := r.d.PIs[in.idx]
		r.set(0, n, v)
		r.schedule1(n)
		r.set2both(n, v)
		return
	}
	f := r.d.Flops[in.idx]
	q := r.d.Insts[f].Out
	r.set(0, q, v)
	r.schedule1(q)
	if r.xferSrc[f] == netlist.NoNet {
		r.set2both(q, v)
	}
}

// install stamps the cone of site by a worklist over the load lists and
// injects stuck into the faulty rail.
func (r *refEngine) install(site netlist.NetID, stuck logic.V) {
	r.site = site
	r.gen++
	work := []netlist.NetID{site}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		for _, g := range r.combLoads[n] {
			if r.coneMark[g] != r.gen {
				r.coneMark[g] = r.gen
				work = append(work, r.d.Insts[g].Out)
			}
		}
	}
	r.set(2, site, stuck)
	r.schedule2(site)
	r.wave()
}

// packed is net n's three reference rails in the engine's byte layout.
func (r *refEngine) packed(n int) uint8 {
	return uint8(r.val1[n])<<sh1 | uint8(r.val2[n])<<sh2 | uint8(r.valf[n])<<shF
}

// rails formats a packed byte as frame-1/good/faulty.
func rails(b uint8) string {
	return fmt.Sprintf("%v/%v/%v", rail(b, sh1), rail(b, sh2), rail(b, shF))
}

// firstDiff returns the first net whose packed rails differ.
func firstDiff(a, b []uint8) (netlist.NetID, bool) {
	for n := range a {
		if a[n] != b[n] {
			return netlist.NetID(n), true
		}
	}
	return netlist.NoNet, false
}

// checkEmpty reports a member left in set s, or bounds not reset.
func checkEmpty(name string, s *posSet) error {
	for w, x := range s.bits {
		if x != 0 {
			return fmt.Errorf("%s word %d = %#x", name, w, x)
		}
	}
	if s.lo != len(s.bits)<<6 || s.hi != -1 {
		return fmt.Errorf("%s bounds [%d, %d]", name, s.lo, s.hi)
	}
	return nil
}

// checkDirtyEmpty reports a mark left in either frame's dirty set, or
// bounds not reset, between waves.
func (e *engine) checkDirtyEmpty() error {
	for _, err := range []error{checkEmpty("frame-1 dirty set", &e.d1), checkEmpty("frame-2 dirty set", &e.d2)} {
		if err != nil {
			return fmt.Errorf("after the sweep: %w", err)
		}
	}
	return nil
}

// checkCleared is checkDirtyEmpty with no fault installed: the cone, both
// region sets and the frontier set must be empty too, and no region
// marked built.
func (e *engine) checkCleared() error {
	for _, err := range []error{e.checkDirtyEmpty(), checkEmpty("cone", &e.inCone),
		checkEmpty("frame-1 region", &e.reg1), checkEmpty("frame-2 region", &e.reg2),
		checkEmpty("frontier", &e.front)} {
		if err != nil {
			return err
		}
	}
	if e.regionBuilt {
		return fmt.Errorf("the region is marked built")
	}
	return nil
}

// regionMask returns, per net, the rail bits the installed fault's read
// region covers: the frame-1 rail of the nets reg1's gates read or
// drive, the two frame-2 rails of those of reg2, and all three at the
// site.
func (e *engine) regionMask() []uint8 {
	m := make([]uint8, len(e.vals))
	cover := func(s *posSet, rails uint8) {
		for p := range e.gates {
			if g := &e.gates[p]; s.has(int32(p)) {
				m[g.Out()] |= rails
				for _, n := range g.Inputs() {
					m[n] |= rails
				}
			}
		}
	}
	cover(&e.reg1, 3<<sh1)
	cover(&e.reg2, 3<<sh2|3<<shF)
	m[e.site] = 3<<sh1 | 3<<sh2 | 3<<shF
	return m
}

// compare checks the engine's rails under mask (see regionMask) against
// the reference bit for bit, and that the engine's dirty sets are empty.
func compare(e *engine, r *refEngine, mask []uint8) error {
	for n := range e.vals {
		m := uint8(0xff)
		if mask != nil {
			m = mask[n]
		}
		if want := r.packed(n); (e.vals[n]^want)&m != 0 {
			return fmt.Errorf("net %s: engine %s, reference %s",
				e.d.Nets[n].Name, rails(e.vals[n]), rails(want))
		}
	}
	return e.checkDirtyEmpty()
}

// checkpoint pairs the two machines' trail marks at one logical point:
// their trails differ in granularity, so undo goes to matching marks.
type checkpoint struct{ e, r int }

// waveDriver runs one random sequence of placements, waves, fault
// installs and undos on an engine and the reference side by side.
type waveDriver struct {
	t     *testing.T
	rng   *rand.Rand
	l     *fault.List
	e     *engine
	r     *refEngine
	stack []checkpoint
	step  string
	// mask is the installed fault's regionMask, taken once the first
	// decision has built the region; nil, which compares every net, with
	// no fault installed and before that decision, when every rail is
	// still the full closure.
	mask []uint8
}

func (w *waveDriver) check(what string) {
	w.t.Helper()
	if w.mask == nil && w.e.regionBuilt {
		w.mask = w.e.regionMask()
	}
	if err := compare(w.e, w.r, w.mask); err != nil {
		w.t.Fatalf("%s, after %s: %v", w.step, what, err)
	}
}

func (w *waveDriver) mark() { w.stack = append(w.stack, checkpoint{len(w.e.trail), len(w.r.trail)}) }

// undo returns both machines to checkpoint k and drops the later ones;
// k past the stack is a no-op.
func (w *waveDriver) undo(k int) {
	w.t.Helper()
	if k >= len(w.stack) {
		return
	}
	c := w.stack[k]
	w.stack = w.stack[:k]
	w.e.undoTo(c.e)
	w.r.undoTo(c.r)
	w.check("undo")
}

// freeInputs lists the decision inputs whose frame-1 value is X.
func (w *waveDriver) freeInputs() []inputRef {
	var in []inputRef
	for i, n := range w.e.d.PIs {
		if w.e.decidablePI[i] && rail(w.e.vals[n], sh1) == logic.X {
			in = append(in, inputRef{isPI: true, idx: i})
		}
	}
	for i, f := range w.e.d.Flops {
		if rail(w.e.vals[w.e.d.Insts[f].Out], sh1) == logic.X {
			in = append(in, inputRef{idx: i})
		}
	}
	return in
}

// assign makes k placements on both machines and settles them with one
// wave each.
func (w *waveDriver) assign(k int) {
	w.t.Helper()
	free := w.freeInputs()
	w.rng.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
	for _, in := range free[:min(k, len(free))] {
		v := logic.V(w.rng.Intn(2))
		w.mark()
		w.e.assignInput(in, v)
		w.r.place(in, v)
		w.r.wave()
		w.check(fmt.Sprintf("assigning %+v = %v", in, v))
	}
}

// pin places a random cube of k care bits on both machines with one
// wave, as compaction pins a base.
func (w *waveDriver) pin(k int) {
	w.t.Helper()
	c := Cube{State: map[int]logic.V{}, PIs: map[int]logic.V{}}
	for _, in := range w.freeInputs() {
		if w.rng.Intn(len(w.e.d.Flops)+len(w.e.d.PIs)) < k {
			if in.isPI {
				c.PIs[in.idx] = logic.V(w.rng.Intn(2))
			} else {
				c.State[in.idx] = logic.V(w.rng.Intn(2))
			}
		}
	}
	w.mark()
	w.e.pin(c)
	for idx, v := range c.State {
		w.r.place(inputRef{idx: idx}, v)
	}
	for idx, v := range c.PIs {
		w.r.place(inputRef{isPI: true, idx: idx}, v)
	}
	w.r.wave()
	w.check(fmt.Sprintf("pinning %d care bits", len(c.State)+len(c.PIs)))
}

// install sets up a random fault with an observable endpoint on both
// machines; a drawn fault without one is torn down again. With excited
// set, the fault is drawn among those whose site the base already
// holds at the post-transition value in frame 2 (while any is found in a
// few thousand draws): injecting it flips a defined faulty value, the one
// write a wave sees that is not a refinement.
func (w *waveDriver) install(excited bool) {
	w.t.Helper()
	w.mark()
	for draws := 0; ; draws++ {
		fi := w.rng.Intn(len(w.l.Faults))
		f := &w.l.Faults[fi]
		post := logic.One // slow-to-rise: 0 -> 1
		if f.Type == fault.STF {
			post = logic.Zero
		}
		if excited && draws < 4000 && rail(w.e.vals[f.Net], sh2) != post {
			continue
		}
		if w.e.setupFault(f) {
			w.r.install(f.Net, w.e.stuck)
			w.check("installing " + w.l.String(fi))
			return
		}
		w.e.teardown(len(w.e.trail))
	}
}

// teardown uninstalls the fault through the engine's teardown, back to
// checkpoint k that install took, and checks that every rail of every
// net matches again and that the cone and region sets are empty.
func (w *waveDriver) teardown(k int) {
	w.t.Helper()
	c := w.stack[k]
	w.stack = w.stack[:k]
	w.e.teardown(c.e)
	w.r.undoTo(c.r)
	w.r.site, w.mask = netlist.NoNet, nil
	w.check("teardown")
	if err := w.e.checkCleared(); err != nil {
		w.t.Fatalf("%s, after teardown: %v", w.step, err)
	}
}

// TestWaveMatchesReference drives the engine and the reference through
// random sequences of placements, pinned bases, fault installs and undos
// on the scale-96 design, under LOC and LOS. Each round covers the three
// states a wave runs in: no fault, a fault installed, and a pinned
// compaction base under the fault. After every wave and undo the rails
// must match the reference bit for bit, those of every net in the
// installed fault's read region once the first placement has built it
// and those of every net otherwise, and both dirty sets must be empty;
// undoing everything must return to rest.
func TestWaveMatchesReference(t *testing.T) {
	rounds := 1000
	if testing.Short() {
		rounds = 100
	}
	r := newRig(t, 96)
	for _, mode := range []LaunchMode{LOC, LOS} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := runConfig(r.d, r.sc, Options{Dom: 0, Mode: mode, BacktrackLimit: 64}, nil)
			e, err := newEngine(r.s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rest := append([]uint8(nil), e.vals...)
			w := &waveDriver{t: t, rng: rand.New(rand.NewSource(int64(7 + mode))), l: r.l,
				e: e, r: newRefEngine(r.d, cfg), step: "rest"}
			w.check("construction")
			for round := 0; round < rounds; round++ {
				w.step = fmt.Sprintf("round %d", round)
				// No fault installed.
				w.assign(1 + w.rng.Intn(4))
				w.undo(w.rng.Intn(len(w.stack) + 1))
				// A pinned base, most rounds, then a fault on top of it.
				if w.rng.Intn(4) > 0 {
					w.pin(4 + w.rng.Intn(len(r.d.Flops)))
				}
				base := len(w.stack)
				w.install(round%2 == 1)
				for k := 0; k < 3; k++ {
					w.assign(1 + w.rng.Intn(6))
					w.undo(base + 1 + w.rng.Intn(len(w.stack)-base))
				}
				w.assign(2)
				w.teardown(base)
				w.undo(0)
				if n, ok := firstDiff(e.vals, rest); ok {
					t.Fatalf("%s: net %s rests at %s, want %s",
						w.step, r.d.Nets[n].Name, rails(e.vals[n]), rails(rest[n]))
				}
			}
		})
	}
}
