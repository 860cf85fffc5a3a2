package sim

import (
	"fmt"
	"slices"

	"scap/internal/logic"
	"scap/internal/netlist"
	"scap/internal/obs"
	"scap/internal/sdf"
)

// Event-loop observability: dispatched/suppressed counts are tracked in
// launch-local variables and flushed once per launch, so the event loop
// itself carries no atomic traffic.
var (
	cLaunches   = obs.NewCounter("sim.launches")
	cDispatched = obs.NewCounter("sim.events_dispatched")
	cSuppressed = obs.NewCounter("sim.events_suppressed")
)

// Clock supplies per-flop clock arrival times (ns after the clock-source
// edge). *clocktree.Tree implements it; internal/delayscale substitutes an
// IR-drop-derated version.
type Clock interface {
	Arrival(f netlist.InstID) float64
}

// ToggleFn receives one output transition during timing simulation: the
// driving instance, the transition time (ns after the launch clock-source
// edge) and the new value's polarity. This is the reproduction of the
// paper's PLI hook: power accounting happens in the callback with no VCD
// intermediary.
type ToggleFn func(inst netlist.InstID, t float64, rising bool)

// Timing is the event-driven gate-level timing simulator.
type Timing struct {
	sim    *Simulator
	delays *sdf.Delays
	tree   Clock // nil means an ideal (zero-skew) clock

	// MaxEventsPerNet guards against event explosion in glitchy
	// reconvergent logic; further transitions on a saturated net are
	// dropped and counted in Result.Suppressed.
	MaxEventsPerNet int

	// MinPulseNs floors the inertial filter: an output pulse narrower than
	// max(MinPulseNs, the driving gate's own switching delay) is swallowed
	// (classical inertial delay — a gate cannot produce a pulse shorter
	// than the time it takes to switch). Zero keeps only the per-gate
	// window; a negative value disables filtering (pure transport delay).
	MinPulseNs float64

	// width is the event queue's bucket width: the smallest positive
	// rise or fall delay of the table, 0 when it has none.
	width float64
}

// NewTiming builds a timing simulator from a combinational simulator, a
// delay table and an optional clock tree. It reads the table's smallest
// delay once, as the event queue's bucket width; a Timing is read-only
// after this, so workers can share clones.
func NewTiming(s *Simulator, delays *sdf.Delays, tree Clock) *Timing {
	tm := &Timing{sim: s, delays: delays, tree: tree, MaxEventsPerNet: 128, MinPulseNs: 0.12}
	for _, tab := range [][]float64{delays.Rise, delays.Fall} {
		for _, d := range tab {
			if d > 0 && (tm.width == 0 || d < tm.width) {
				tm.width = d
			}
		}
	}
	return tm
}

// Clone returns an independent Timing with the same configuration. The
// underlying simulator, delay table and clock tree are immutable after
// construction and stay shared; Timing itself holds no scratch state
// between launches (launch buffers live in the caller-owned
// LaunchScratch), so a clone is just a config copy. This is the
// per-worker constructor path of the parallel profiling pipeline —
// pair each clone with its own NewLaunchScratch.
func (tm *Timing) Clone() *Timing {
	c := *tm
	return &c
}

// Result summarizes one launch-to-capture timing simulation.
type Result struct {
	Toggles    int     // total output transitions observed
	Suppressed int     // transitions dropped by the per-net event cap
	FirstEvent float64 // time of the first transition (ns), -1 if none
	LastEvent  float64 // time of the last transition (ns), 0 if none

	// STW is the switching time frame window: the span during which all
	// transitions occur, measured from the launch clock edge to the last
	// transition (the paper's definition: the maximum path length affected
	// by the pattern determines this frame).
	STW float64

	// EndpointArrival[i] is the time of the last transition seen at the D
	// input of flop i (d.Flops order); EndpointActive[i] reports whether
	// the endpoint saw any transition at all. Non-active endpoints are the
	// paper's zero-delay endpoints in Figure 7.
	EndpointArrival []float64
	EndpointActive  []bool

	// Nets holds the final settled net values.
	Nets []logic.V
}

type event struct {
	t   float64
	seq int
	net netlist.NetID
	val logic.V
}

// maxBuckets caps the calendar queue's bucket array. The nominal
// geometry (a 4 × 20 ns horizon over the smallest library delay) needs
// about 3,000 buckets; a longer horizon widens the buckets instead of
// adding more.
const maxBuckets = 4096

// qslot is one pending event in the queue's pooled slot array, linked to
// the next event of its bucket (or, when free, to the next free slot).
type qslot struct {
	ev   event
	next int32
}

// calQueue is the launch's event queue, a calendar queue (R. Brown,
// "Calendar Queues", CACM 31(10), 1988): bucket k holds the pending
// events with int(t·(1/w)) == k, clamped to the first and last bucket,
// and the buckets drain in order, each sorted by (t, seq) when it opens.
// The bucket index is monotone in t, so bucket order never contradicts
// time order, and a launch never pushes an event earlier than the one it
// is dispatching, so no push lands in a bucket that has already drained.
// The pops therefore come out in exact (t, seq) order — a total order,
// since seq is unique — and every simulation result is that of a (t, seq)
// priority queue, float accumulation order included.
//
// With w at the smallest positive delay of the Timing's table, a gate
// event lands at least one bucket ahead of the one being drained. A push
// into the open bucket (a lastSched clamp, a zero delay, rounding at a
// bucket edge, or a width the bucket cap widened) is inserted in order
// behind the read cursor: it carries the largest seq yet, so it goes
// after every unread event whose t is at most its own. Pending events
// live in one pooled slot array, linked per bucket with a free list, so
// the queue's memory follows the number of pending events, not the
// number of buckets, and steady-state launches allocate nothing.
type calQueue struct {
	inv   float64 // 1/w: the bucket of t is int(t*inv)
	last  int     // index of the last bucket this launch uses
	head  []int32 // per bucket: its first slot, -1 when empty
	slots []qslot
	free  int32   // first free slot, -1 when none
	k     int     // the open bucket, -1 before the first pop
	open  []event // the open bucket's events, sorted by (t, seq)
	at    int     // read cursor into open
	n     int     // pending events, voided ones included
}

// reset sets the geometry for one launch — bucket width w, widened so
// that the horizon spans at most maxBuckets buckets — on an empty queue.
func (q *calQueue) reset(w, horizon float64) {
	w = max(w, horizon/maxBuckets)
	q.inv = 1 / w
	q.last = maxBuckets - 1
	if x := horizon * q.inv; x < maxBuckets-1 {
		q.last = int(x) + 1
	}
	if len(q.head) <= q.last {
		q.head = make([]int32, q.last+1) // every head is empty between launches
		for i := range q.head {
			q.head[i] = -1
		}
	}
	q.k = -1
	q.slots = q.slots[:0]
	q.free = -1
	q.open = q.open[:0]
	q.at = 0
}

// bucket maps time t to its bucket, clamped to [0, last]. The comparisons
// run in floating point, so a negative or huge t never reaches the
// integer conversion.
func (q *calQueue) bucket(t float64) int {
	x := t * q.inv
	switch {
	case x < 1:
		return 0
	case x < float64(q.last):
		return int(x)
	}
	return q.last
}

// push adds e, which must not be earlier than the last popped event.
func (q *calQueue) push(e event) {
	q.n++
	b := q.bucket(e.t)
	if b <= q.k {
		i := len(q.open)
		q.open = append(q.open, e)
		for i > q.at && q.open[i-1].t > e.t {
			q.open[i] = q.open[i-1]
			i--
		}
		q.open[i] = e
		return
	}
	s := q.free
	if s >= 0 {
		q.free = q.slots[s].next
	} else {
		s = int32(len(q.slots))
		q.slots = append(q.slots, qslot{})
	}
	q.slots[s] = qslot{ev: e, next: q.head[b]}
	q.head[b] = s
}

// pop removes and returns the earliest event. The caller must check
// q.n > 0 first.
func (q *calQueue) pop() event {
	if q.at == len(q.open) {
		q.fill()
	}
	e := q.open[q.at]
	q.at++
	q.n--
	return e
}

// fill opens the next non-empty bucket: its events move from their slots
// into open, the slots go to the free list, and open is sorted.
func (q *calQueue) fill() {
	k := q.k + 1
	for q.head[k] < 0 {
		k++
	}
	q.k = k
	q.open = q.open[:0]
	q.at = 0
	for s := q.head[k]; s >= 0; {
		sl := &q.slots[s]
		q.open = append(q.open, sl.ev)
		next := sl.next
		sl.next = q.free
		q.free = s
		s = next
	}
	q.head[k] = -1
	sortEvents(q.open)
}

// before is the queue's order: by time, then by push sequence.
func before(a, b event) bool {
	return a.t < b.t || a.t == b.t && a.seq < b.seq
}

// sortEvents sorts a bucket's events by (t, seq). Most buckets hold a
// few events, which an insertion sort orders fastest; a large one (the
// launch edge of a dense pattern, or a bucket the cap widened) goes to
// the library sort, which stays O(n log n).
func sortEvents(ev []event) {
	if len(ev) > 32 {
		slices.SortFunc(ev, func(a, b event) int {
			switch {
			case before(a, b):
				return -1
			case before(b, a):
				return 1
			}
			return 0
		})
		return
	}
	for i := 1; i < len(ev); i++ {
		e := ev[i]
		j := i
		for ; j > 0 && before(e, ev[j-1]); j-- {
			ev[j] = ev[j-1]
		}
		ev[j] = e
	}
}

// clear drops the events a launch cut at the horizon left pending, so
// every bucket is empty again for the next reset.
func (q *calQueue) clear() {
	if q.n > 0 {
		for b := q.k + 1; b <= q.last; b++ {
			q.head[b] = -1
		}
		q.n = 0
	}
}

// LaunchInto runs one at-speed launch-to-capture cycle:
//
//   - the network is settled at the pre-launch state v1 (per-flop values,
//     d.Flops order) with constant primary inputs pis;
//   - at each flop's clock arrival time the flop output switches to its
//     launch value v2 (launch-off-capture: v2 is the captured response of
//     v1, but any v2 works — launch-off-shift passes the last-shift state);
//   - events propagate through the combinational logic with per-instance
//     rise/fall delays until the queue drains or the capture edge at
//     period ns has long passed.
//
// onToggle (optional) observes every output transition. The returned
// Result carries switching statistics, the STW and per-endpoint arrivals.
//
// A nil ls allocates a one-shot scratch; otherwise ls must have been
// built for tm's simulator, and steady-state calls allocate nothing: the
// pre-launch settle is skipped when (v1, pis) repeats the scratch's
// cached baseline and is one topological sweep otherwise, and an undo
// log restores the baseline afterwards.
//
// The returned Result and its slices (Nets, EndpointArrival,
// EndpointActive) live inside ls and are only valid until the next
// LaunchInto on the same scratch — copy what must survive.
func (tm *Timing) LaunchInto(ls *LaunchScratch, v1, v2 []logic.V, pis []logic.V, period float64, onToggle ToggleFn) (*Result, error) {
	s := tm.sim
	d := s.d
	if period <= 0 {
		return nil, fmt.Errorf("sim: period %v ns: must be positive", period)
	}
	if tm.MaxEventsPerNet < 1 {
		return nil, fmt.Errorf("sim: MaxEventsPerNet %d: must be >= 1", tm.MaxEventsPerNet)
	}
	if len(v1) != len(d.Flops) || len(v2) != len(d.Flops) {
		return nil, fmt.Errorf("sim: state length %d/%d, want %d", len(v1), len(v2), len(d.Flops))
	}
	if len(pis) != len(d.PIs) {
		return nil, fmt.Errorf("sim: pi length %d, want %d", len(pis), len(d.PIs))
	}
	if ls == nil {
		ls = NewLaunchScratch(s)
	} else if ls.s != s {
		return nil, fmt.Errorf("sim: scratch bound to a different simulator")
	}

	ls.settle(v1, pis)
	nets := ls.nets

	// Fresh event phase: the settled baseline guarantees projected ==
	// nets, eventsOn == 0, lastSched == 0, lastSeq == -1 everywhere (the
	// undo log restored them), and one gen bump empties the void and
	// undo sets.
	horizon := 4 * period // safety: glitch tails beyond this are abandoned
	ls.gen++
	ls.seq = 0
	ls.q.reset(tm.width, horizon)
	res := &ls.res
	res.Toggles, res.Suppressed = 0, 0
	res.FirstEvent, res.LastEvent, res.STW = -1, 0, 0
	for i := range res.EndpointArrival {
		res.EndpointArrival[i] = 0
		res.EndpointActive[i] = false
	}

	// Launch edge: flops whose state changes emit a Q transition at their
	// clock arrival time.
	for i, f := range d.Flops {
		if v1[i] == v2[i] || v2[i] == logic.X {
			continue
		}
		t := 0.0
		if tm.tree != nil {
			t = tm.tree.Arrival(f)
		}
		ls.pushEvent(tm, t, s.flops[i].out, v2[i], 0)
	}

	dispatched := 0
	for ls.q.n > 0 {
		ev := ls.q.pop()
		dispatched++
		if ls.voidStamp[ev.seq] == ls.gen {
			continue
		}
		if ls.lastSeq[ev.net] == ev.seq {
			ls.lastSeq[ev.net] = -1 // no longer cancellable
		}
		if ev.t > horizon {
			res.Suppressed += ls.q.n + 1
			break
		}
		old := nets[ev.net]
		if old == ev.val {
			continue
		}
		nets[ev.net] = ev.val

		// Account the transition against the driving instance.
		if old != logic.X && ev.val != logic.X {
			res.Toggles++
			if res.FirstEvent < 0 || ev.t < res.FirstEvent {
				res.FirstEvent = ev.t
			}
			if ev.t > res.LastEvent {
				res.LastEvent = ev.t
			}
			if drv := s.driver[ev.net]; onToggle != nil && drv != netlist.NoInst {
				onToggle(drv, ev.t, ev.val == logic.One)
			}
		}

		for _, e := range s.loadsOf(ev.net) {
			if e < 0 { // D input of flop ^e: endpoint observation
				res.EndpointArrival[^e] = ev.t
				res.EndpointActive[^e] = true
				continue
			}
			g := &s.gates[e]
			newOut := g.eval(nets)
			if newOut == ls.projected[g.out] {
				continue
			}
			rise, fall := tm.delays.Of(g.id)
			dly := fall
			if newOut == logic.One {
				dly = rise
			}
			ls.pushEvent(tm, ev.t+dly, g.out, newOut, dly)
		}
	}

	res.STW = res.LastEvent
	copy(ls.resNets, nets)
	res.Nets = ls.resNets
	ls.restore()
	cLaunches.Add(1)
	cDispatched.Add(int64(dispatched))
	cSuppressed.Add(int64(res.Suppressed))
	return res, nil
}
