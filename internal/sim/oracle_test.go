package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"scap/internal/cell"
	"scap/internal/logic"
	"scap/internal/netlist"
)

// This file keeps the struct-walking launch kernel that the flat gate
// table replaced, as the oracle the table-driven kernels are checked
// against. The reference reads only the netlist records (d.Insts, d.Nets
// and their Loads) and cell.Eval, settles every launch with a full
// propagation from all-X, and keeps its events in a container/heap
// queue, so it shares no table, settle or queue code with the kernel.

// refPropagate is Propagate over the netlist records: every
// combinational instance in TopoOrder, evaluated with cell.Eval.
func refPropagate(d *netlist.Design, nets []logic.V) {
	order, err := d.TopoOrder()
	if err != nil {
		panic(err)
	}
	var buf [4]logic.V
	for _, id := range order {
		inst := &d.Insts[id]
		if inst.IsFlop() {
			continue
		}
		in := buf[:len(inst.In)]
		for p, n := range inst.In {
			in[p] = nets[n]
		}
		nets[inst.Out] = cell.Eval(inst.Kind, in)
	}
}

// refSettle returns the settled net values at pre-launch state v1.
func refSettle(d *netlist.Design, v1, pis []logic.V) []logic.V {
	nets := make([]logic.V, d.NumNets())
	for i := range nets {
		nets[i] = logic.X
	}
	for i, n := range d.PIs {
		nets[n] = pis[i]
	}
	for i, f := range d.Flops {
		nets[d.Insts[f].Out] = v1[i]
	}
	refPropagate(d, nets)
	return nets
}

// refQueue orders events by (t, seq) through container/heap.
type refQueue []event

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].t != q[j].t {
		return q[i].t < q[j].t
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(event)) }
func (q *refQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// refLaunch is the reference launch: the same event semantics as
// Timing.LaunchInto (per-net event cap, inertial filter, horizon), walked
// over the netlist records with fresh state.
func refLaunch(tm *Timing, v1, v2, pis []logic.V, period float64, onToggle ToggleFn) *Result {
	d := tm.sim.d
	nn := d.NumNets()
	nets := refSettle(d, v1, pis)
	projected := append([]logic.V(nil), nets...)
	prevProj := make([]logic.V, nn)
	eventsOn := make([]int, nn)
	lastSched := make([]float64, nn)
	lastSeq := make([]int, nn)
	for i := range lastSeq {
		lastSeq[i] = -1
	}
	slot := make(map[netlist.InstID]int, len(d.Flops))
	for i, f := range d.Flops {
		slot[f] = i
	}
	res := &Result{
		FirstEvent:      -1,
		EndpointArrival: make([]float64, len(d.Flops)),
		EndpointActive:  make([]bool, len(d.Flops)),
	}
	voided := map[int]bool{}
	var q refQueue
	seq := 0
	push := func(t float64, n netlist.NetID, v logic.V, width float64) {
		if eventsOn[n] >= tm.MaxEventsPerNet {
			res.Suppressed++
			return
		}
		if t < lastSched[n] {
			t = lastSched[n]
		}
		if width < tm.MinPulseNs {
			width = tm.MinPulseNs
		}
		if tm.MinPulseNs >= 0 && lastSeq[n] >= 0 && v == prevProj[n] && t-lastSched[n] < width {
			voided[lastSeq[n]] = true
			lastSeq[n] = -1
			projected[n] = v
			return
		}
		prevProj[n] = projected[n]
		projected[n] = v
		lastSched[n] = t
		lastSeq[n] = seq
		eventsOn[n]++
		heap.Push(&q, event{t: t, seq: seq, net: n, val: v})
		seq++
	}

	for i, f := range d.Flops {
		if v1[i] == v2[i] || v2[i] == logic.X {
			continue
		}
		t := 0.0
		if tm.tree != nil {
			t = tm.tree.Arrival(f)
		}
		push(t, d.Insts[f].Out, v2[i], 0)
	}
	horizon := 4 * period
	var buf [4]logic.V
	for q.Len() > 0 {
		ev := heap.Pop(&q).(event)
		if voided[ev.seq] {
			continue
		}
		if lastSeq[ev.net] == ev.seq {
			lastSeq[ev.net] = -1
		}
		if ev.t > horizon {
			res.Suppressed += q.Len() + 1
			break
		}
		old := nets[ev.net]
		if old == ev.val {
			continue
		}
		nets[ev.net] = ev.val
		drv := d.Nets[ev.net].Driver
		if old != logic.X && ev.val != logic.X {
			res.Toggles++
			if res.FirstEvent < 0 || ev.t < res.FirstEvent {
				res.FirstEvent = ev.t
			}
			if ev.t > res.LastEvent {
				res.LastEvent = ev.t
			}
			if onToggle != nil && drv != netlist.NoInst {
				onToggle(drv, ev.t, ev.val == logic.One)
			}
		}
		for _, ld := range d.Nets[ev.net].Loads {
			inst := &d.Insts[ld.Inst]
			if inst.IsFlop() {
				if ld.Pin == 0 {
					res.EndpointArrival[slot[ld.Inst]] = ev.t
					res.EndpointActive[slot[ld.Inst]] = true
				}
				continue
			}
			in := buf[:len(inst.In)]
			for p, n := range inst.In {
				in[p] = nets[n]
			}
			newOut := cell.Eval(inst.Kind, in)
			if newOut == projected[inst.Out] {
				continue
			}
			rise, fall := tm.delays.Of(inst.ID)
			dly := fall
			if newOut == logic.One {
				dly = rise
			}
			push(ev.t+dly, inst.Out, newOut, dly)
		}
	}
	res.STW = res.LastEvent
	res.Nets = nets
	return res
}

// arrivals is a Clock over a dense per-instance table.
type arrivals []float64

func (a arrivals) Arrival(f netlist.InstID) float64 { return a[f] }

// oracleCases mixes two pattern streams: random fills with X on flops
// and PIs (half launch-off-capture, half an unrelated random V2, so most
// flops launch), then the low-activity chain of randomCases.
func oracleCases(d *netlist.Design, s *Simulator, n int, seed int64) []launchCase {
	r := rand.New(rand.NewSource(seed))
	draw := func(v []logic.V) {
		for i := range v {
			switch x := r.Intn(10); {
			case x == 0:
				v[i] = logic.X
			default:
				v[i] = logic.FromBool(x%2 == 1)
			}
		}
	}
	var cases []launchCase
	for k := 0; k < n; k++ {
		c := launchCase{
			v1:  make([]logic.V, len(d.Flops)),
			v2:  make([]logic.V, len(d.Flops)),
			pis: make([]logic.V, len(d.PIs)),
		}
		draw(c.v1)
		draw(c.pis)
		if k%2 == 0 {
			copy(c.v2, refSettleCapture(s, c.v1, c.pis))
		} else {
			draw(c.v2)
		}
		cases = append(cases, c)
	}
	return append(cases, randomCases(d, s, n, seed+1)...)
}

// refSettleCapture is the LOC launch state of (v1, pis) via the reference.
func refSettleCapture(s *Simulator, v1, pis []logic.V) []logic.V {
	d := s.d
	nets := refSettle(d, v1, pis)
	out := make([]logic.V, len(d.Flops))
	var buf [4]logic.V
	for i, f := range d.Flops {
		inst := &d.Insts[f]
		in := buf[:len(inst.In)]
		for p, n := range inst.In {
			in[p] = nets[n]
		}
		out[i] = cell.Eval(inst.Kind, in)
	}
	return out
}

// oracleTimings returns the nominal timing plus variants that exercise
// every branch of the event phase: derated delays with a skewed clock,
// pure transport delay, and an event cap low enough to suppress.
func oracleTimings(t *testing.T, d *netlist.Design, s *Simulator) []*Timing {
	t.Helper()
	dl := delaysFor(t, d)
	r := rand.New(rand.NewSource(5))
	scaled := dl.Clone()
	for i := range scaled.Rise {
		f := 1 + 0.3*r.Float64()
		scaled.Rise[i] *= f
		scaled.Fall[i] *= f
	}
	clk := make(arrivals, d.NumInsts())
	for _, f := range d.Flops {
		clk[f] = 0.8 + 0.3*r.Float64()
	}
	transport := NewTiming(s, dl, clk)
	transport.MinPulseNs = -1
	capped := NewTiming(s, scaled, nil)
	capped.MaxEventsPerNet = 2
	return []*Timing{NewTiming(s, dl, nil), NewTiming(s, scaled, clk), transport, capped}
}

// diffLaunch runs case c through the flat kernel on scratch ls and
// through the reference, and reports the first difference: the toggle
// stream (instance, time, polarity), every Result field, and the settled
// baseline the scratch holds afterwards.
func diffLaunch(tm *Timing, ls *LaunchScratch, c launchCase) error {
	var got, want []toggleRec
	rec := func(dst *[]toggleRec) ToggleFn {
		return func(inst netlist.InstID, t float64, rising bool) {
			*dst = append(*dst, toggleRec{inst, t, rising})
		}
	}
	res, err := tm.LaunchInto(ls, c.v1, c.v2, c.pis, 20, rec(&got))
	if err != nil {
		return err
	}
	ref := refLaunch(tm, c.v1, c.v2, c.pis, 20, rec(&want))
	if len(got) != len(want) {
		return fmt.Errorf("toggle stream has %d toggles, reference %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("toggle %d = %+v, reference %+v", i, got[i], want[i])
		}
	}
	if res.Toggles != ref.Toggles || res.Suppressed != ref.Suppressed ||
		res.FirstEvent != ref.FirstEvent || res.LastEvent != ref.LastEvent || res.STW != ref.STW {
		return fmt.Errorf("result %d/%d/%v/%v/%v, reference %d/%d/%v/%v/%v",
			res.Toggles, res.Suppressed, res.FirstEvent, res.LastEvent, res.STW,
			ref.Toggles, ref.Suppressed, ref.FirstEvent, ref.LastEvent, ref.STW)
	}
	for i := range ref.EndpointArrival {
		if res.EndpointArrival[i] != ref.EndpointArrival[i] || res.EndpointActive[i] != ref.EndpointActive[i] {
			return fmt.Errorf("endpoint %d = %v/%v, reference %v/%v", i,
				res.EndpointArrival[i], res.EndpointActive[i], ref.EndpointArrival[i], ref.EndpointActive[i])
		}
	}
	for i := range ref.Nets {
		if res.Nets[i] != ref.Nets[i] {
			return fmt.Errorf("final net %d = %v, reference %v", i, res.Nets[i], ref.Nets[i])
		}
	}
	settled := refSettle(tm.sim.d, c.v1, c.pis)
	for i := range settled {
		if ls.nets[i] != settled[i] || ls.projected[i] != settled[i] {
			return fmt.Errorf("settled net %d = %v (projected %v), reference %v",
				i, ls.nets[i], ls.projected[i], settled[i])
		}
	}
	return nil
}

// TestFlatKernelMatchesReference is the property test of the flat gate
// table: one scratch carries every case in turn, rotating through the
// nominal, derated, transport and event-capped timings, and each launch
// must match the struct-walking reference bit for bit. Propagate is
// checked against the reference propagation on the same inputs.
func TestFlatKernelMatchesReference(t *testing.T) {
	d, s := socSim(t)
	tms := oracleTimings(t, d, s)
	cases := oracleCases(d, s, 24, 11)
	ls := NewLaunchScratch(s)
	for k, c := range cases {
		tm := tms[k%len(tms)]
		if err := diffLaunch(tm, ls, c); err != nil {
			t.Fatalf("case %d (timing %d): %v", k, k%len(tms), err)
		}
		nets := s.NewNets()
		s.SetPIs(nets, c.pis)
		s.ApplyState(nets, c.v1)
		s.Propagate(nets)
		want := refSettle(d, c.v1, c.pis)
		for i := range want {
			if nets[i] != want[i] {
				t.Fatalf("case %d: Propagate net %d = %v, reference %v", k, i, nets[i], want[i])
			}
		}
	}
}

// dropFanout returns a copy of s whose table lacks entry k of net n's
// fanout list.
func dropFanout(s *Simulator, n netlist.NetID, k int) *Simulator {
	m := *s
	at := int(s.fanStart[n]) + k
	m.fanout = append(append([]int32(nil), s.fanout[:at]...), s.fanout[at+1:]...)
	m.fanStart = append([]int32(nil), s.fanStart...)
	for i := int(n) + 1; i < len(m.fanStart); i++ {
		m.fanStart[i]--
	}
	return &m
}

// catchesMutation runs the property test's cases on the mutated table
// mut and reports whether any launch differs from the reference.
func catchesMutation(t *testing.T, d *netlist.Design, mut *Simulator) bool {
	tms := oracleTimings(t, d, mut)
	ls := NewLaunchScratch(mut)
	for k, c := range oracleCases(d, mut, 24, 11) {
		if diffLaunch(tms[k%len(tms)], ls, c) != nil {
			return true
		}
	}
	return false
}

// invOfFlop finds an inverter or buffer fed by a flop output, so any
// change of the flop must reach it: the net and the gate's position.
func invOfFlop(t *testing.T, s *Simulator) (netlist.NetID, int32) {
	for i := range s.flops {
		q := s.flops[i].out
		for _, e := range s.loadsOf(q) {
			if e >= 0 && (s.gates[e].kind == cell.Inv || s.gates[e].kind == cell.Buf) {
				return q, e
			}
		}
	}
	t.Fatal("no flop output drives an inverter or buffer")
	return 0, 0
}

// TestReferenceCatchesDroppedFanout is the mutation check of the
// property test: with one fanout entry missing from the table (an
// inverter or buffer fed by a flop output, so any change of the flop
// must reach it), the comparison has to fail on the same cases.
func TestReferenceCatchesDroppedFanout(t *testing.T) {
	d, s := socSim(t)
	q, p := invOfFlop(t, s)
	if !catchesMutation(t, d, dropFanout(s, q, slices.Index(s.loadsOf(q), p))) {
		t.Fatal("the reference comparison missed a dropped fanout entry")
	}
}
