// Package faultsim implements parallel-pattern single-fault propagation
// (PPSFP) for transition delay faults: 64 launch-off-capture (or
// launch-off-shift) pattern pairs are simulated at once through the good
// machine, and each fault's act-masked frame-2 stuck-at effect is
// propagated by sim.Cone, the packed cone kernel over the simulator's flat
// gate table. Two observers of the flop D pins the cone reaches give the
// two answers: Detect's slot mask, which stops the cone once every
// activated slot is detected, and FailSlots' per-flop failure signature,
// which runs the whole cone. DetectAll fans the per-fault cones across the
// internal/parallel worker pool (see Workers), so a sweep grades workers ×
// 64 packed patterns at once. The package provides the fault dropping
// that keeps ATPG fast, the coverage accounting behind the paper's
// Figure 4 curves, and the signatures detection grading and diagnosis
// replay.
package faultsim

import (
	"math/bits"

	"scap/internal/fault"
	"scap/internal/logic"
	"scap/internal/netlist"
	"scap/internal/obs"
	"scap/internal/parallel"
	"scap/internal/sim"
)

// Fault-simulation observability: batches simulated, cone work per
// detection, early-exit share and drop yield, all wired into the -report
// run report. Cone gate counts accumulate in a per-call local and flush
// once per Detect, so the inner propagation loop never touches an atomic.
var (
	cBatches   = obs.NewCounter("faultsim.batches")
	cDetects   = obs.NewCounter("faultsim.detects")
	cNoAct     = obs.NewCounter("faultsim.no_activation")
	cEarlyExit = obs.NewCounter("faultsim.early_exits")
	cConeGates = obs.NewCounter("faultsim.cone_gate_evals")
	cDropped   = obs.NewCounter("faultsim.faults_dropped")
)

func init() {
	obs.RegisterDerived("faultsim.early_exit_share", func(c map[string]int64) (float64, bool) {
		det := c["faultsim.detects"] - c["faultsim.no_activation"]
		if det <= 0 {
			return 0, false
		}
		return float64(c["faultsim.early_exits"]) / float64(det), true
	})
}

// Sim is a reusable transition-fault simulator for one design. It keeps
// the fault semantics (activation, act-masked stuck injection, the
// batch's domain, the detect mask with early exit and the failure
// signature); the propagation itself is sim.Cone's sweep over the flat
// gate table, which reports every flop D pin the fault effect reaches to
// one of two observers, detector (Detect) or signature (FailSlots).
//
// Concurrency: the good-machine methods (GoodSim, GoodSimInto,
// GoodSimShiftInto, Activation) touch no Sim scratch and are safe to call
// concurrently on distinct batches.
// Detect and FailSlots own mutable scratch and must not run concurrently
// on one Sim — Clone produces additional Sims sharing the immutable
// design and slot-domain tables for exactly that. Drop, DetectionCounts
// and DetectAll shard themselves across Workers cloned Sims and are
// bit-identical for any worker count.
type Sim struct {
	s *sim.Simulator
	d *netlist.Design
	// dom is the clock domain of each flop slot (d.Flops order), shared
	// by clones: a batch observes only the flops of its own domain
	// (launch-off-capture observes captured flops only; primary outputs
	// are not measured, per the paper).
	dom []int

	// Workers fans DetectAll (and through it Drop and DetectionCounts)
	// across the worker pool: 0 means all cores, 1 forces the exact
	// serial path. Results are identical for any value.
	Workers int

	// per-Sim scratch: the cone kernel and the two observers.
	cone *sim.Cone
	det  detector
	sig  signature

	// worker machinery, owned by the Sim DetectAll is called on:
	clones  []*Sim // lazily grown clone pool (clones[w] serves worker w+1)
	simsBuf []*Sim // reusable pool slice handed to parallel.For bodies
	detBuf  []uint64
}

// New builds a fault simulator on top of a zero-delay simulator.
func New(s *sim.Simulator) *Sim {
	return newSim(s, s.Design().FlopDomains())
}

func newSim(s *sim.Simulator, dom []int) *Sim {
	return &Sim{s: s, d: s.Design(), dom: dom, cone: sim.NewCone(s)}
}

// Simulator returns the zero-delay simulator fs propagates over.
func (fs *Sim) Simulator() *sim.Simulator { return fs.s }

// Clone returns a Sim with private cone scratch that shares the design
// and the slot-domain table with fs — the per-worker constructor of the
// parallel fault-dropping pipeline. It is O(nets) for the scratch
// vectors and performs no per-flop analysis.
func (fs *Sim) Clone() *Sim { return newSim(fs.s, fs.dom) }

// pool returns n Sims usable by workers 0..n-1: fs itself plus lazily
// built clones, cached across calls so steady-state sweeps allocate
// nothing.
func (fs *Sim) pool(n int) []*Sim {
	for len(fs.clones) < n-1 {
		fs.clones = append(fs.clones, fs.Clone())
	}
	if cap(fs.simsBuf) < n {
		fs.simsBuf = make([]*Sim, n)
	}
	sims := fs.simsBuf[:n]
	sims[0] = fs
	copy(sims[1:], fs.clones[:n-1])
	return sims
}

// dets returns the reusable DetectAll result buffer sized to n.
func (fs *Sim) dets(n int) []uint64 {
	if cap(fs.detBuf) < n {
		fs.detBuf = make([]uint64, n)
	}
	return fs.detBuf[:n]
}

// Batch holds the good-machine simulation of up to 64 launch-off-capture
// pattern pairs targeting one clock domain. The zero Batch is ready to
// fill; GoodSimInto and GoodSimShiftInto refill one in place, so a caller
// that simulates batch after batch allocates its vectors once. A batch is
// sized for the design of the first Sim that fills it.
type Batch struct {
	Dom int
	// N1 and N2 are the per-net frame-1 (initialization) and frame-2
	// (launch/capture) good values.
	N1, N2 []logic.Word
	// Valid masks the slots that carry real patterns.
	Valid uint64

	v2 []logic.Word // launch-state scratch, per flop
}

// GoodSim simulates the good machine for a batch of launch-off-capture
// pattern pairs into a new Batch; see GoodSimInto.
func (fs *Sim) GoodSim(v1, pis []logic.Word, dom int, valid uint64) *Batch {
	return fs.GoodSimInto(new(Batch), v1, pis, dom, valid)
}

// GoodSimInto simulates the good machine for a batch of launch-off-capture
// pattern pairs into b and returns it: v1 is the per-flop scan-in state,
// pis the constant primary-input values (nil: all X). Only flops of domain
// dom launch and capture; all others hold their v1 value. GoodSimInto
// touches no Sim scratch and is safe to call concurrently on distinct
// batches.
func (fs *Sim) GoodSimInto(b *Batch, v1, pis []logic.Word, dom int, valid uint64) *Batch {
	fs.frame1(b, v1, pis, dom, valid)
	v2 := fs.s.CaptureStateWInto(b.v2, b.N1)
	for i := range v2 {
		if fs.dom[i] != dom {
			v2[i] = v1[i]
		}
	}
	fs.frame2(b, v2, pis)
	return b
}

// GoodSimShiftInto simulates the good machine for launch-off-shift
// patterns into b: the launch state of each domain flop is the frame-1
// value of its shift source net (previous chain cell or scan-in pin);
// flops absent from src hold.
func (fs *Sim) GoodSimShiftInto(b *Batch, v1, pis []logic.Word, dom int, valid uint64,
	src map[netlist.InstID]netlist.NetID) *Batch {

	fs.frame1(b, v1, pis, dom, valid)
	for i, f := range fs.d.Flops {
		if n, ok := src[f]; ok && fs.dom[i] == dom {
			b.v2[i] = b.N1[n]
		} else {
			b.v2[i] = v1[i]
		}
	}
	fs.frame2(b, b.v2, pis)
	return b
}

// frame1 sizes b's vectors on first use and settles the initialization
// frame into it.
func (fs *Sim) frame1(b *Batch, v1, pis []logic.Word, dom int, valid uint64) {
	cBatches.Add(1)
	s := fs.s
	if b.N1 == nil {
		b.N1, b.N2 = s.NewNetsW(), s.NewNetsW()
		b.v2 = make([]logic.Word, len(fs.d.Flops))
	}
	b.Dom, b.Valid = dom, valid
	fs.setPIs(b.N1, pis)
	s.ApplyStateW(b.N1, v1)
	s.PropagateW(b.N1)
}

// frame2 settles the launch/capture frame for the launch state v2.
func (fs *Sim) frame2(b *Batch, v2, pis []logic.Word) {
	s := fs.s
	fs.setPIs(b.N2, pis)
	s.ApplyStateW(b.N2, v2)
	s.PropagateW(b.N2)
}

// setPIs writes the primary-input values onto nets; nil writes all X.
func (fs *Sim) setPIs(nets, pis []logic.Word) {
	if pis != nil {
		fs.s.SetPIsW(nets, pis)
		return
	}
	for _, n := range fs.d.PIs {
		nets[n] = logic.Word{}
	}
}

// Activation returns the slot mask where fault f's launch transition occurs
// (frame-1 value then frame-2 value at the site, e.g. 0→1 for slow-to-rise).
func (fs *Sim) Activation(b *Batch, f *fault.Fault) uint64 {
	n1, n2 := b.N1[f.Net], b.N2[f.Net]
	if f.Type == fault.STR {
		return n1.Zero & n2.One & b.Valid
	}
	return n1.One & n2.Zero & b.Valid
}

// injection is fault f's frame-2 value at its site under activation act.
// The stuck value is masked to the activated slots: a transition fault
// only misbehaves where the transition was launched, and detection is
// act-masked anyway, so the other slots keep their good value — which
// keeps the divergence cone (and the word-level propagation frontier)
// tight on wide packed batches where most slots activate only a few
// faults.
func injection(b *Batch, f *fault.Fault, act uint64) logic.Word {
	stuck := logic.Splat(logic.Zero) // slow-to-rise behaves stuck-at-0 in frame 2
	if f.Type == fault.STF {
		stuck = logic.Splat(logic.One)
	}
	return logic.Select(act, b.N2[f.Net], stuck)
}

// capture is what both observers check at a reached flop: the activated
// slots where the flop, if it belongs to the batch's domain, captures a
// faulty value.
type capture struct {
	dom      []int // per flop slot, shared with the Sim
	batchDom int
	act      uint64
}

func (c *capture) fails(slot int, good, faulty logic.Word) uint64 {
	if c.dom[slot] != c.batchDom {
		return 0
	}
	return good.Diff(faulty) & c.act
}

// detector is Detect's observer: it collects the failing slots of every
// reached flop and stops the cone once every activated slot is detected.
type detector struct {
	capture
	mask uint64
}

func (o *detector) Reach(slot int, good, faulty logic.Word) bool {
	o.mask |= o.fails(slot, good, faulty)
	return o.mask == o.act
}

// Detect returns the slot mask where fault f is detected by the batch:
// the launch transition occurs and the frame-2 stuck-at effect reaches a
// captured flop of the batch's domain.
func (fs *Sim) Detect(b *Batch, f *fault.Fault) uint64 {
	cDetects.Add(1)
	act := fs.Activation(b, f)
	if act == 0 {
		cNoAct.Add(1)
		return 0
	}
	fs.det = detector{capture: capture{fs.dom, b.Dom, act}}
	evals := fs.cone.Run(b.N2, f.Net, injection(b, f, act), &fs.det)
	if fs.det.mask == act {
		cEarlyExit.Add(1)
	}
	cConeGates.Add(int64(evals))
	return fs.det.mask
}

// signature is FailSlots' observer: it records the failing slots per
// reached flop and never stops the cone, so the signature is complete.
// sig is indexed by flop slot and zeroed again before FailSlots returns.
type signature struct {
	capture
	sig   []uint64
	flops []int
	masks []uint64
}

func (o *signature) Reach(slot int, good, faulty logic.Word) bool {
	if m := o.fails(slot, good, faulty); m != 0 {
		if o.sig[slot] == 0 {
			o.flops = append(o.flops, slot)
		}
		o.sig[slot] |= m
	}
	return false
}

// FailSlots returns, for fault f under the batch, the per-flop failure
// signature: the failing flop indexes (design flop order) in first-reached
// order, and the slot mask per flop where it captures a faulty value.
// Unlike Detect it propagates the whole cone (no early exit), so the
// signature is complete — the prediction a tester's failing-cycle log is
// matched against during diagnosis. Both slices are owned by the Sim and
// valid until the next FailSlots call on it.
func (fs *Sim) FailSlots(b *Batch, f *fault.Fault) ([]int, []uint64) {
	o := &fs.sig
	o.flops, o.masks = o.flops[:0], o.masks[:0]
	act := fs.Activation(b, f)
	if act == 0 {
		return o.flops, o.masks
	}
	if o.sig == nil {
		o.sig = make([]uint64, len(fs.dom))
	}
	o.capture = capture{fs.dom, b.Dom, act}
	fs.cone.Run(b.N2, f.Net, injection(b, f, act), o)
	// Drain the dense signature back to zero while building the compact
	// mask list, leaving sig clean for the next fault.
	for _, fi := range o.flops {
		o.masks = append(o.masks, o.sig[fi])
		o.sig[fi] = 0
	}
	return o.flops, o.masks
}

// DetectAll computes the detection mask of every fault in subset against
// the batch, writing dets[i] for subset[i] (len(dets) must equal
// len(subset)). With undetectedOnly, faults whose status is not
// Undetected are skipped and report a zero mask. The per-fault cone
// propagations are independent, so the loop fans out across
// Resolve(fs.Workers) cloned Sims; every task writes only its own
// index-addressed slot, making the result bit-identical for any worker
// count and any subset order. The fault list is read-only here — callers
// merge dets into statuses afterwards (Drop, CompactReverse).
func (fs *Sim) DetectAll(l *fault.List, subset []int, b *Batch, dets []uint64, undetectedOnly bool) {
	n := len(subset)
	if n == 0 {
		return
	}
	workers := parallel.Resolve(fs.Workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i, fi := range subset {
			if undetectedOnly && l.Status[fi] != fault.Undetected {
				dets[i] = 0
				continue
			}
			dets[i] = fs.Detect(b, &l.Faults[fi])
		}
		return
	}
	sims := fs.pool(workers)
	// The body never fails; parallel.For's error plumbing is unused.
	_ = parallel.For(workers, n, func(w, i int) error {
		fi := subset[i]
		if undetectedOnly && l.Status[fi] != fault.Undetected {
			dets[i] = 0
			return nil
		}
		dets[i] = sims[w].Detect(b, &l.Faults[fi])
		return nil
	})
}

// Drop runs detection for every not-yet-detected fault in subset against
// the batch and marks newly detected faults with the index of the earliest
// detecting pattern (base + slot). It returns the number of faults
// dropped. The detection sweep fans out across fs.Workers (the merge is
// serial in subset order), so the marks are bit-identical to the serial
// path for any worker count.
func (fs *Sim) Drop(l *fault.List, subset []int, b *Batch, base int) int {
	dets := fs.dets(len(subset))
	fs.DetectAll(l, subset, b, dets, true)
	dropped := 0
	for i, fi := range subset {
		det := dets[i]
		if det == 0 || l.Status[fi] != fault.Undetected {
			continue
		}
		l.MarkDetected(fi, base+bits.TrailingZeros64(det))
		dropped++
	}
	cDropped.Add(int64(dropped))
	return dropped
}

// DetectionCounts adds, for every fault in subset, the number of batch
// patterns that detect it into counts (indexed like the fault list). It
// backs n-detect metrics: industrial flows often require every fault be
// detected n times to improve small-delay-defect screening. Like Drop,
// the sweep is worker-parallel and deterministic.
func (fs *Sim) DetectionCounts(l *fault.List, subset []int, b *Batch, counts []int) {
	dets := fs.dets(len(subset))
	fs.DetectAll(l, subset, b, dets, false)
	for i, fi := range subset {
		if dets[i] != 0 {
			counts[fi] += bits.OnesCount64(dets[i])
		}
	}
}
