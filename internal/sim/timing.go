package sim

import (
	"fmt"

	"scap/internal/logic"
	"scap/internal/netlist"
	"scap/internal/obs"
	"scap/internal/sdf"
)

// Event-loop observability: dispatched/suppressed counts are tracked in
// launch-local variables and flushed once per Launch, so the event loop
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
}

// NewTiming builds a timing simulator from a combinational simulator, a
// delay table and an optional clock tree.
func NewTiming(s *Simulator, delays *sdf.Delays, tree Clock) *Timing {
	return &Timing{sim: s, delays: delays, tree: tree, MaxEventsPerNet: 128, MinPulseNs: 0.12}
}

// Clone returns an independent Timing with the same configuration. The
// underlying simulator, delay table and clock tree are immutable after
// construction and stay shared; Timing itself holds no scratch state
// between Launch calls (launch buffers live in the caller-owned
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

// eventQueue is a value-typed 4-ary min-heap ordered by (t, seq). A
// hand-rolled heap instead of container/heap: the interface{} Push/Pop
// of the standard library boxes every event onto the garbage-collected
// heap, one allocation per scheduled transition, which dominated the
// allocation profile of the timing hot loop. Arity 4 halves the tree
// depth of the binary heap, trading (cheap, cache-resident) sibling
// comparisons for (expensive) level-to-level moves. (t, seq) is a total
// order — seq is unique — so pop order, and with it every simulation
// result, is independent of the heap's internal layout.
type eventQueue []event

func (q eventQueue) less(i, j int) bool {
	if q[i].t != q[j].t {
		return q[i].t < q[j].t
	}
	return q[i].seq < q[j].seq
}

// push appends e and sifts it up to its heap position.
func (q *eventQueue) push(e event) {
	h := append(*q, e)
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 4
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	*q = h
}

// pop removes and returns the earliest event. The caller must check
// emptiness first.
func (q *eventQueue) pop() event {
	h := *q
	n := len(h) - 1
	top := h[0]
	h[0] = h[n]
	h = h[:n]
	*q = h
	for i := 0; ; {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h.less(c, min) {
				min = c
			}
		}
		if !h.less(min, i) {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return top
}

// Launch runs one at-speed launch-to-capture cycle:
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
// Launch allocates a fresh scratch per call; hot loops should hold a
// per-worker LaunchScratch and call LaunchInto instead.
func (tm *Timing) Launch(v1, v2 []logic.V, pis []logic.V, period float64, onToggle ToggleFn) (*Result, error) {
	return tm.LaunchInto(nil, v1, v2, pis, period, onToggle)
}

// LaunchInto is the buffer-reusing form of Launch. A nil ls allocates a
// one-shot scratch (exactly Launch); otherwise ls must have been built
// for tm's simulator, and steady-state calls allocate nothing: the
// pre-launch settle touches only the fanout cone of flops/PIs that
// changed since the previous call (or nothing at all when the pattern
// repeats), and an undo log restores the baseline afterwards.
//
// The returned Result and its slices (Nets, EndpointArrival,
// EndpointActive) live inside ls and are only valid until the next
// LaunchInto on the same scratch — copy what must survive.
func (tm *Timing) LaunchInto(ls *LaunchScratch, v1, v2 []logic.V, pis []logic.V, period float64, onToggle ToggleFn) (*Result, error) {
	defer obs.TraceStart().End("sim", "launch")
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
	ls.gen++
	ls.seq = 0
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

	horizon := 4 * period // safety: glitch tails beyond this are abandoned
	dispatched := 0
	for len(ls.q) > 0 {
		ev := ls.q.pop()
		dispatched++
		if ls.voidStamp[ev.seq] == ls.gen {
			continue
		}
		if ls.lastSeq[ev.net] == ev.seq {
			ls.lastSeq[ev.net] = -1 // no longer cancellable
		}
		if ev.t > horizon {
			res.Suppressed += len(ls.q) + 1
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
