package sim

import (
	"fmt"

	"scap/internal/logic"
	"scap/internal/netlist"
	"scap/internal/obs"
)

// Scratch/settle observability. The settle counters distinguish its two
// cases: a full topological sweep, and a skipped settle when the cached
// baseline already matches the requested (v1, pis) — the cache hit of
// same-pattern re-simulation. settle_gates_evaluated counts the gates
// the sweeps evaluated.
var (
	cSettleFull  = obs.NewCounter("sim.settles_full")
	cSettleSkip  = obs.NewCounter("sim.settles_skipped")
	cSettleGates = obs.NewCounter("sim.settle_gates_evaluated")
)

// schedEntry is one undo-log record: net n held value old in the
// settled baseline before the launch touched it.
type schedEntry struct {
	net netlist.NetID
	old logic.V
}

// LaunchScratch owns every buffer a timing launch needs — the event
// queue, the per-net projection/ordering/inertial-filter arrays, the
// generation-stamped void and undo sets, the endpoint arrays and the
// Result itself — so steady-state LaunchInto calls perform zero heap
// allocation.
//
// Between launches the scratch caches the settled pre-launch baseline
// settle(v1, pis): an undo log restores the per-net state the event
// phase disturbed, so re-launching the identical pattern (the metered
// launch after its V2 derivation, delayscale re-simulation) skips
// settling entirely, and any other pattern re-settles with one full
// topological sweep. The cached baseline is delay- and
// clock-independent, so one scratch may be shared across Timing
// instances that differ only in delays/tree — but never across
// Simulators (the topology must not change) and never concurrently
// (one scratch per worker).
type LaunchScratch struct {
	s *Simulator

	// nets holds settle(baseV1, basePIs) between launches; during the
	// event phase it is the live waveform state and the undo log
	// restores it afterwards.
	nets      []logic.V
	projected []logic.V
	eventsOn  []int
	lastSched []float64
	lastSeq   []int
	prevProj  []logic.V

	q   calQueue
	seq int

	// gen stamps the per-launch dirty sets so they reset with a single
	// increment instead of O(N) clears. It is bumped once per event phase
	// (schedGen, voidStamp).
	gen       uint64
	voidStamp []uint64 // by event seq: == gen means voided
	schedGen  []uint64 // by net: == gen means already in the undo log
	sched     []schedEntry

	// Cache identity: the (v1, pis) the baseline was settled at.
	baseV1    []logic.V
	basePIs   []logic.V
	baseValid bool

	// res and resNets are reused across launches; the Result returned
	// by LaunchInto points into them and is valid until the next
	// LaunchInto on this scratch.
	res     Result
	resNets []logic.V
}

// NewLaunchScratch allocates a scratch sized for s. All per-launch
// buffers are created here once; subsequent LaunchInto calls on the
// scratch allocate nothing.
func NewLaunchScratch(s *Simulator) *LaunchScratch {
	nn := s.d.NumNets()
	nf := len(s.d.Flops)
	ls := &LaunchScratch{
		s:         s,
		nets:      make([]logic.V, nn),
		projected: make([]logic.V, nn),
		eventsOn:  make([]int, nn),
		lastSched: make([]float64, nn),
		lastSeq:   make([]int, nn),
		prevProj:  make([]logic.V, nn),
		schedGen:  make([]uint64, nn),
		baseV1:    make([]logic.V, nf),
		basePIs:   make([]logic.V, len(s.d.PIs)),
		resNets:   make([]logic.V, nn),
	}
	for i := range ls.lastSeq {
		ls.lastSeq[i] = -1
	}
	// A net no gate, flop or primary input drives stays X in every
	// settle; no settle writes it.
	for i := range ls.nets {
		ls.nets[i] = logic.X
	}
	ls.res.EndpointArrival = make([]float64, nf)
	ls.res.EndpointActive = make([]bool, nf)
	return ls
}

// Simulator returns the simulator this scratch is bound to.
func (ls *LaunchScratch) Simulator() *Simulator { return ls.s }

// SettleBaseline settles the network at pre-launch state v1 (per-flop,
// d.Flops order) with constant primary inputs pis and returns the net
// values. The returned slice is the scratch's internal baseline — read
// only, valid until the next call on this scratch. A following
// LaunchInto with the same (v1, pis) reuses the settle for free.
func (ls *LaunchScratch) SettleBaseline(v1, pis []logic.V) ([]logic.V, error) {
	d := ls.s.d
	if len(v1) != len(d.Flops) {
		return nil, fmt.Errorf("sim: state length %d, want %d", len(v1), len(d.Flops))
	}
	if len(pis) != len(d.PIs) {
		return nil, fmt.Errorf("sim: pi length %d, want %d", len(pis), len(d.PIs))
	}
	ls.settle(v1, pis)
	return ls.nets, nil
}

func eqV(a, b []logic.V) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// settle establishes nets = settle(v1, pis) and projected = nets. A
// pattern equal to the cached (baseV1, basePIs) skips; any other runs
// the full topological Propagate. The sweep overwrites every gate
// output and reads only primary inputs, flop outputs, undriven nets
// (X since NewLaunchScratch) and outputs it has already written, so it
// needs no clearing first.
func (ls *LaunchScratch) settle(v1, pis []logic.V) {
	if ls.baseValid && eqV(ls.baseV1, v1) && eqV(ls.basePIs, pis) {
		cSettleSkip.Add(1)
		return
	}
	s := ls.s
	s.SetPIs(ls.nets, pis)
	s.ApplyState(ls.nets, v1)
	s.Propagate(ls.nets)
	copy(ls.projected, ls.nets)
	copy(ls.baseV1, v1)
	copy(ls.basePIs, pis)
	ls.baseValid = true
	cSettleFull.Add(1)
	cSettleGates.Add(int64(len(s.gates)))
}

// pushEvent schedules net n to take value v at time t; width is the
// driving stage's inertial window. The caller must have verified v
// differs from projected[n]; pushEvent updates projected[n]. The first
// touch of a net records its baseline value in the undo log so the
// scratch can be restored after the launch. A method rather than a
// closure: closing over the scratch would allocate per launch.
func (ls *LaunchScratch) pushEvent(tm *Timing, t float64, n netlist.NetID, v logic.V, width float64) {
	if ls.eventsOn[n] >= tm.MaxEventsPerNet {
		ls.res.Suppressed++
		return
	}
	if ls.schedGen[n] != ls.gen {
		ls.schedGen[n] = ls.gen
		ls.sched = append(ls.sched, schedEntry{net: n, old: ls.projected[n]})
	}
	if t < ls.lastSched[n] {
		t = ls.lastSched[n]
	}
	if width < tm.MinPulseNs {
		width = tm.MinPulseNs
	}
	// Inertial filter: returning to the pre-pulse value within the
	// stage's switching window swallows the pulse.
	if tm.MinPulseNs >= 0 && ls.lastSeq[n] >= 0 && v == ls.prevProj[n] &&
		t-ls.lastSched[n] < width {
		ls.voidStamp[ls.lastSeq[n]] = ls.gen
		ls.lastSeq[n] = -1
		ls.projected[n] = v
		return
	}
	ls.prevProj[n] = ls.projected[n]
	ls.projected[n] = v
	ls.lastSched[n] = t
	ls.lastSeq[n] = ls.seq
	ls.eventsOn[n]++
	ls.q.push(event{t: t, seq: ls.seq, net: n, val: v})
	if ls.seq >= len(ls.voidStamp) {
		ls.voidStamp = append(ls.voidStamp, 0)
	}
	ls.seq++
}

// restore rolls the per-net state touched by the launch back to the
// settled baseline, so the scratch invariantly holds settle(baseV1,
// basePIs) between launches. Only nets in the undo log were disturbed:
// every fired or pending event passed through pushEvent first.
func (ls *LaunchScratch) restore() {
	for _, e := range ls.sched {
		ls.nets[e.net] = e.old
		ls.projected[e.net] = e.old
		ls.eventsOn[e.net] = 0
		ls.lastSched[e.net] = 0
		ls.lastSeq[e.net] = -1
	}
	ls.sched = ls.sched[:0]
	ls.q.clear()
}
