package faultsim

import (
	"math/rand"
	"testing"

	"scap/internal/cell"
	"scap/internal/fault"
	"scap/internal/logic"
	"scap/internal/netlist"
	"scap/internal/sim"
	"scap/internal/soc"
)

// This file keeps the level-bucket cone that sim.Cone replaced, as the
// oracle Detect and FailSlots are checked against. The reference reads
// only the netlist records (d.Insts, d.Nets and their Loads, d.Levels)
// and cell.EvalWord, queues gates in per-level buckets and observes
// captures through per-domain net maps, so it shares no table, sweep or
// observer code with the kernel.

// refSim is the reference cone propagator for one design.
type refSim struct {
	d      *netlist.Design
	levels []int32
	// isObs[dom][net] marks the D nets of domain dom's flops;
	// obsOwners[dom][net] lists the flop indexes whose D input is net.
	isObs     [][]bool
	obsOwners []map[netlist.NetID][]int

	fv      []logic.Word
	touched []bool
	tlist   []netlist.NetID
	queued  []bool
	buckets [][]netlist.InstID
}

func newRefSim(t *testing.T, d *netlist.Design) *refSim {
	t.Helper()
	lv, err := d.Levels()
	if err != nil {
		t.Fatal(err)
	}
	ml := int32(0)
	for _, l := range lv {
		ml = max(ml, l)
	}
	r := &refSim{
		d: d, levels: lv,
		isObs:     make([][]bool, len(d.Domains)),
		obsOwners: make([]map[netlist.NetID][]int, len(d.Domains)),
		fv:        make([]logic.Word, d.NumNets()),
		touched:   make([]bool, d.NumNets()),
		queued:    make([]bool, d.NumInsts()),
		buckets:   make([][]netlist.InstID, ml+2),
	}
	for dom := range d.Domains {
		r.isObs[dom] = make([]bool, d.NumNets())
		r.obsOwners[dom] = map[netlist.NetID][]int{}
	}
	for fi, f := range d.Flops {
		inst := d.Inst(f)
		dn := inst.In[0]
		r.isObs[inst.Domain][dn] = true
		r.obsOwners[inst.Domain][dn] = append(r.obsOwners[inst.Domain][dn], fi)
	}
	return r
}

// cone injects fault f (act-masked, as Detect does) and propagates it
// level by level, calling record for every net that takes a faulty value.
// It stops once the mask record returns equals act.
func (r *refSim) cone(b *Batch, f *fault.Fault, act uint64, record func(netlist.NetID, logic.Word) uint64) {
	d := r.d
	stuck := logic.Splat(logic.Zero)
	if f.Type == fault.STF {
		stuck = logic.Splat(logic.One)
	}
	set := func(n netlist.NetID, v logic.Word) uint64 {
		if !r.touched[n] {
			r.touched[n] = true
			r.tlist = append(r.tlist, n)
		}
		r.fv[n] = v
		for _, ld := range d.Nets[n].Loads {
			if d.Insts[ld.Inst].IsFlop() || r.queued[ld.Inst] {
				continue
			}
			r.queued[ld.Inst] = true
			lv := r.levels[ld.Inst]
			r.buckets[lv] = append(r.buckets[lv], ld.Inst)
		}
		return record(n, v)
	}
	seen := set(f.Net, logic.Select(act, b.N2[f.Net], stuck))
	for lv := 1; lv < len(r.buckets) && seen != act; lv++ {
		for _, g := range r.buckets[lv] {
			if seen == act {
				break
			}
			inst := &d.Insts[g]
			var in [4]logic.Word
			for p, n := range inst.In {
				in[p] = b.N2[n]
				if r.touched[n] {
					in[p] = r.fv[n]
				}
			}
			out := cell.EvalWord(inst.Kind, in[:len(inst.In)])
			cur := b.N2[inst.Out]
			if r.touched[inst.Out] {
				cur = r.fv[inst.Out]
			}
			if out != cur {
				seen = set(inst.Out, out)
			}
		}
	}
	for _, n := range r.tlist {
		r.touched[n] = false
	}
	r.tlist = r.tlist[:0]
	for lv := range r.buckets {
		for _, g := range r.buckets[lv] {
			r.queued[g] = false
		}
		r.buckets[lv] = r.buckets[lv][:0]
	}
}

// refActivation is Sim.Activation, restated.
func refActivation(b *Batch, f *fault.Fault) uint64 {
	n1, n2 := b.N1[f.Net], b.N2[f.Net]
	if f.Type == fault.STR {
		return n1.Zero & n2.One & b.Valid
	}
	return n1.One & n2.Zero & b.Valid
}

// detect is the reference Detect: the act-masked difference at every
// observation net of the batch's domain, stopping once all of act is seen.
func (r *refSim) detect(b *Batch, f *fault.Fault) uint64 {
	act := refActivation(b, f)
	if act == 0 {
		return 0
	}
	var mask uint64
	r.cone(b, f, act, func(n netlist.NetID, v logic.Word) uint64 {
		if r.isObs[b.Dom][n] {
			mask |= b.N2[n].Diff(v) & act
		}
		return mask
	})
	return mask
}

// failMasks is the reference FailSlots, as a flop → slot-mask map over
// the whole cone.
func (r *refSim) failMasks(b *Batch, f *fault.Fault) map[int]uint64 {
	act := refActivation(b, f)
	out := map[int]uint64{}
	if act == 0 {
		return out
	}
	r.cone(b, f, act, func(n netlist.NetID, v logic.Word) uint64 {
		if !r.isObs[b.Dom][n] {
			return 0
		}
		if m := b.N2[n].Diff(v) & act; m != 0 {
			for _, fi := range r.obsOwners[b.Dom][n] {
				out[fi] |= m
			}
		}
		return 0
	})
	return out
}

// randomWords draws packed values with about one slot in eight X.
func randomWords(r *rand.Rand, n int) []logic.Word {
	w := make([]logic.Word, n)
	for i := range w {
		known := r.Uint64() | r.Uint64() | r.Uint64()
		ones := r.Uint64()
		w[i] = logic.Word{Zero: known &^ ones, One: known & ones}
	}
	return w
}

// oracleBatches returns LOC and LOS batches over every domain of d with
// random X-bearing states and partial valid masks. The LOS shift source
// of each flop is the Q net of the flop before it in d.Flops (a PI for
// the first); every seventh flop has no source and holds.
func oracleBatches(fs *Sim, seed int64) []*Batch {
	d := fs.d
	r := rand.New(rand.NewSource(seed))
	src := map[netlist.InstID]netlist.NetID{}
	prev := d.PIs[0]
	for i, f := range d.Flops {
		if i%7 != 3 {
			src[f] = prev
		}
		prev = d.Insts[f].Out
	}
	var out []*Batch
	for k := 0; k < 2*len(d.Domains); k++ {
		dom := k % len(d.Domains)
		v1 := randomWords(r, len(d.Flops))
		pis := randomWords(r, len(d.PIs))
		valid := logic.ValidMask(40 + r.Intn(25))
		if k < len(d.Domains) {
			out = append(out, fs.GoodSim(v1, pis, dom, valid))
		} else {
			out = append(out, fs.GoodSimShiftInto(new(Batch), v1, pis, dom, valid, src))
		}
	}
	return out
}

// diffCone compares Detect and FailSlots with the reference on every
// fault of l under batch b and returns the index of the first fault that
// differs, or -1.
func diffCone(fs *Sim, ref *refSim, l *fault.List, b *Batch) (int, string) {
	for fi := range l.Faults {
		f := &l.Faults[fi]
		if got, want := fs.Detect(b, f), ref.detect(b, f); got != want {
			return fi, "Detect"
		}
		flops, masks := fs.FailSlots(b, f)
		want := ref.failMasks(b, f)
		if len(flops) != len(masks) || len(flops) != len(want) {
			return fi, "FailSlots size"
		}
		for i, flop := range flops {
			if want[flop] != masks[i] {
				return fi, "FailSlots mask"
			}
		}
	}
	return -1, ""
}

// TestConeMatchesReference is the property test of the cone kernel: on
// the generated SOC, over LOC and LOS batches of every domain with X
// slots, Detect must equal the level-bucket reference bit for bit on
// every fault of the list, and FailSlots must equal it as a flop → mask
// set.
func TestConeMatchesReference(t *testing.T) {
	d, _, err := soc.Generate(soc.DefaultConfig(96))
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(d)
	if err != nil {
		t.Fatal(err)
	}
	fs := New(s)
	ref := newRefSim(t, d)
	l := fault.Universe(d)
	detected := 0
	for bi, b := range oracleBatches(fs, 41) {
		if fi, what := diffCone(fs, ref, l, b); fi >= 0 {
			t.Fatalf("batch %d (domain %d): fault %s: %s differs from the reference", bi, b.Dom, l.String(fi), what)
		}
		for fi := range l.Faults {
			if fs.Detect(b, &l.Faults[fi]) != 0 {
				detected++
			}
		}
	}
	if detected == 0 {
		t.Fatal("degenerate test: nothing detected")
	}
}
