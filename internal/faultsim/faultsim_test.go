package faultsim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"scap/internal/cell"
	"scap/internal/fault"
	"scap/internal/logic"
	"scap/internal/netlist"
	"scap/internal/sim"
	"scap/internal/soc"
)

// toggler builds: f1.Q=q1 -> INV -> n1; f1.D=n1 (self-toggling), f2.D=n1.
func toggler(t *testing.T) (*netlist.Design, *Sim, netlist.NetID, netlist.NetID) {
	t.Helper()
	d := netlist.New("tog", cell.New180nm())
	d.NumBlocks = 1
	d.Domains = []netlist.DomainInfo{{Name: "clk", FreqMHz: 50, PeriodNs: 20}}
	q1 := d.AddNet("q1")
	q2 := d.AddNet("q2")
	n1 := d.AddNet("n1")
	d.AddInst("inv", cell.Inv, []netlist.NetID{q1}, n1, 0)
	f1 := d.AddInst("f1", cell.DFF, []netlist.NetID{n1}, q1, 0)
	f2 := d.AddInst("f2", cell.DFF, []netlist.NetID{n1}, q2, 0)
	d.SetDomain(f1, 0, false)
	d.SetDomain(f2, 0, false)
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(d)
	if err != nil {
		t.Fatal(err)
	}
	fs := New(s)
	return d, fs, q1, n1
}

func TestDetectOnToggler(t *testing.T) {
	d, fs, q1, n1 := toggler(t)
	// Patterns: slot 0 has q1=0, slot 1 has q1=1; slots 2.. invalid.
	v1 := make([]logic.Word, len(d.Flops))
	for i := range v1 {
		v1[i] = logic.AllX.Set(0, logic.Zero).Set(1, logic.One)
	}
	b := fs.GoodSim(v1, nil, 0, 0b11)

	cases := []struct {
		net  netlist.NetID
		typ  fault.Type
		want uint64
	}{
		{q1, fault.STR, 0b01}, // q1 rises only when V1 q1=0
		{q1, fault.STF, 0b10},
		{n1, fault.STR, 0b10}, // n1 = !q1: rises when V1 q1=1
		{n1, fault.STF, 0b01},
	}
	for _, c := range cases {
		f := fault.Fault{Net: c.net, Type: c.typ}
		if got := fs.Detect(b, &f); got != c.want {
			t.Errorf("Detect(%s %v) = %b, want %b", d.Nets[c.net].Name, c.typ, got, c.want)
		}
		if act := fs.Activation(b, &f); act != c.want {
			t.Errorf("Activation(%s %v) = %b, want %b", d.Nets[c.net].Name, c.typ, act, c.want)
		}
	}
}

func TestValidMaskRespected(t *testing.T) {
	d, fs, q1, _ := toggler(t)
	v1 := make([]logic.Word, len(d.Flops))
	for i := range v1 {
		v1[i] = logic.Splat(logic.Zero)
	}
	b := fs.GoodSim(v1, nil, 0, 0b1) // only slot 0 valid
	f := fault.Fault{Net: q1, Type: fault.STR}
	if got := fs.Detect(b, &f); got != 0b1 {
		t.Fatalf("Detect = %b, want only valid slot", got)
	}
}

// scalarReference recomputes detection for one fault and one pattern with a
// straightforward scalar simulation, independent of the cone machinery.
func scalarReference(d *netlist.Design, s *sim.Simulator, v1 []logic.V, pis []logic.V,
	dom int, f *fault.Fault) bool {

	n1 := s.NewNets()
	s.SetPIs(n1, pis)
	s.ApplyState(n1, v1)
	s.Propagate(n1)
	cap1 := s.CaptureState(n1)
	v2 := make([]logic.V, len(d.Flops))
	for i, fl := range d.Flops {
		if d.Inst(fl).Domain == dom {
			v2[i] = cap1[i]
		} else {
			v2[i] = v1[i]
		}
	}
	n2 := s.NewNets()
	s.SetPIs(n2, pis)
	s.ApplyState(n2, v2)
	s.Propagate(n2)

	// Activation.
	if f.Type == fault.STR && !(n1[f.Net] == logic.Zero && n2[f.Net] == logic.One) {
		return false
	}
	if f.Type == fault.STF && !(n1[f.Net] == logic.One && n2[f.Net] == logic.Zero) {
		return false
	}

	// Faulty frame 2: force the stuck value at the site during propagation.
	stuck := logic.Zero
	if f.Type == fault.STF {
		stuck = logic.One
	}
	fn := make([]logic.V, len(n2))
	s.SetPIs(fn, pis)
	s.ApplyState(fn, v2)
	order, _ := d.TopoOrder()
	if fn[f.Net] != logic.X || d.Nets[f.Net].Driver == netlist.NoInst {
		fn[f.Net] = stuck // site is a state/PI net
	}
	var buf [4]logic.V
	for _, id := range order {
		inst := d.Inst(id)
		if inst.IsFlop() {
			continue
		}
		in := buf[:len(inst.In)]
		for p, n := range inst.In {
			v := fn[n]
			if n == f.Net {
				v = stuck
			}
			in[p] = v
		}
		fn[inst.Out] = cell.Eval(inst.Kind, in)
	}
	fn[f.Net] = stuck

	for _, fl := range d.Flops {
		inst := d.Inst(fl)
		if inst.Domain != dom {
			continue
		}
		dn := inst.In[0]
		if n2[dn] != fn[dn] && n2[dn] != logic.X && fn[dn] != logic.X {
			return true
		}
	}
	return false
}

// TestDetectMatchesScalarReference is the load-bearing cross-check on the
// generated SOC: cone-based parallel detection must agree with brute-force
// scalar fault injection for sampled faults and random patterns.
func TestDetectMatchesScalarReference(t *testing.T) {
	d, _, err := soc.Generate(soc.DefaultConfig(96))
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(d)
	if err != nil {
		t.Fatal(err)
	}
	fs := New(s)
	l := fault.Universe(d)
	r := rand.New(rand.NewSource(5))

	const dom = 0
	v1 := make([]logic.Word, len(d.Flops))
	pisW := make([]logic.Word, len(d.PIs))
	pis := make([]logic.V, len(d.PIs))
	for i := range pis {
		pis[i] = logic.FromBool(r.Intn(2) == 1)
		pisW[i] = logic.Splat(pis[i])
	}
	for i := range v1 {
		known := ^uint64(0)
		ones := r.Uint64()
		v1[i] = logic.Word{Zero: known &^ ones, One: ones}
	}
	b := fs.GoodSim(v1, pisW, dom, ^uint64(0))

	checked := 0
	for fi := 0; fi < len(l.Faults) && checked < 400; fi += 1 + r.Intn(7) {
		f := &l.Faults[fi]
		got := fs.Detect(b, f)
		for _, slot := range []uint{0, 13, 37, 63} {
			v1s := make([]logic.V, len(d.Flops))
			for i := range v1s {
				v1s[i] = v1[i].Get(slot)
			}
			want := scalarReference(d, s, v1s, pis, dom, f)
			if gotBit := got&(1<<slot) != 0; gotBit != want {
				t.Fatalf("fault %s slot %d: parallel %v, scalar %v",
					l.String(fi), slot, gotBit, want)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no faults checked")
	}
}

func TestDropMarksEarliestPattern(t *testing.T) {
	d, fs, q1, _ := toggler(t)
	l := fault.Universe(d)
	var target int
	found := false
	for i := range l.Faults {
		if l.Faults[i].Net == q1 && l.Faults[i].Type == fault.STR {
			target, found = i, true
		}
	}
	if !found {
		t.Fatal("q1 STR collapsed away unexpectedly")
	}
	v1 := make([]logic.Word, len(d.Flops))
	for i := range v1 {
		// Slots 0,1 have q1=1 (no STR activation), slot 2 has q1=0.
		v1[i] = logic.Splat(logic.One).Set(2, logic.Zero)
	}
	b := fs.GoodSim(v1, nil, 0, 0b111)
	subset := []int{target}
	n := fs.Drop(l, subset, b, 100)
	if n != 1 {
		t.Fatalf("dropped %d, want 1", n)
	}
	if l.Status[target] != fault.Detected || l.DetectedBy[target] != 102 {
		t.Fatalf("status %v by %d, want detected by 102", l.Status[target], l.DetectedBy[target])
	}
	// A second drop must not re-mark.
	if n := fs.Drop(l, subset, b, 200); n != 0 {
		t.Fatalf("re-dropped %d", n)
	}
}

func TestScratchStateResetBetweenFaults(t *testing.T) {
	// Running many detections back to back must not leak state: detect the
	// same fault twice and expect identical masks.
	d, _, err := soc.Generate(soc.DefaultConfig(96))
	if err != nil {
		t.Fatal(err)
	}
	s, _ := sim.New(d)
	fs := New(s)
	l := fault.Universe(d)
	r := rand.New(rand.NewSource(6))
	v1 := make([]logic.Word, len(d.Flops))
	for i := range v1 {
		known := ^uint64(0)
		ones := r.Uint64()
		v1[i] = logic.Word{Zero: known &^ ones, One: ones}
	}
	b := fs.GoodSim(v1, nil, 0, ^uint64(0))
	first := make([]uint64, 0, 200)
	for fi := 0; fi < 200 && fi < len(l.Faults); fi++ {
		first = append(first, fs.Detect(b, &l.Faults[fi]))
	}
	for fi := 0; fi < len(first); fi++ {
		if got := fs.Detect(b, &l.Faults[fi]); got != first[fi] {
			t.Fatalf("fault %d: second run %b != first %b", fi, got, first[fi])
		}
	}
}

// TestFailSlotsConsistentWithDetect: the union of per-flop failure masks
// must equal the Detect mask — both views of the same fault effect — and
// every failing flop must belong to the batch's domain.
func TestFailSlotsConsistentWithDetect(t *testing.T) {
	d, _, err := soc.Generate(soc.DefaultConfig(96))
	if err != nil {
		t.Fatal(err)
	}
	s, _ := sim.New(d)
	fs := New(s)
	l := fault.Universe(d)
	r := rand.New(rand.NewSource(17))
	v1 := make([]logic.Word, len(d.Flops))
	pis := make([]logic.Word, len(d.PIs))
	for i := range v1 {
		ones := r.Uint64()
		v1[i] = logic.Word{Zero: ^ones, One: ones}
	}
	for i := range pis {
		ones := r.Uint64()
		pis[i] = logic.Word{Zero: ^ones, One: ones}
	}
	b := fs.GoodSim(v1, pis, 0, ^uint64(0))
	checked := 0
	for fi := 0; fi < len(l.Faults) && checked < 300; fi += 3 {
		f := &l.Faults[fi]
		det := fs.Detect(b, f)
		flops, masks := fs.FailSlots(b, f)
		var union uint64
		for i, flop := range flops {
			if d.Inst(d.Flops[flop]).Domain != 0 {
				t.Fatalf("fault %s fails a non-domain flop", l.String(fi))
			}
			union |= masks[i]
		}
		if union != det {
			t.Fatalf("fault %s: FailSlots union %b != Detect %b", l.String(fi), union, det)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("nothing checked")
	}
}

func TestDetectionCountsAccumulate(t *testing.T) {
	d, fs, q1, _ := toggler(t)
	l := fault.Universe(d)
	v1 := make([]logic.Word, len(d.Flops))
	for i := range v1 {
		// Slots 0,2: q1=0 (STR activates); slot 1: q1=1.
		v1[i] = logic.Splat(logic.Zero).Set(1, logic.One)
	}
	b := fs.GoodSim(v1, nil, 0, 0b111)
	var target int
	for i := range l.Faults {
		if l.Faults[i].Net == q1 && l.Faults[i].Type == fault.STR {
			target = i
		}
	}
	counts := make([]int, len(l.Faults))
	fs.DetectionCounts(l, []int{target}, b, counts)
	if counts[target] != 2 {
		t.Fatalf("q1 STR detected %d times, want 2 (slots 0 and 2)", counts[target])
	}
}

// socHarness builds the SOC-scale simulator trio plus a deterministic set
// of packed batches for the parallel-identity properties.
func socHarness(t *testing.T, seed int64, nBatches int) (*netlist.Design, *Sim, []*Batch) {
	t.Helper()
	d, _, err := soc.Generate(soc.DefaultConfig(96))
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(d)
	if err != nil {
		t.Fatal(err)
	}
	fs := New(s)
	r := rand.New(rand.NewSource(seed))
	batches := make([]*Batch, nBatches)
	for bi := range batches {
		v1 := make([]logic.Word, len(d.Flops))
		pis := make([]logic.Word, len(d.PIs))
		for i := range v1 {
			ones := r.Uint64()
			v1[i] = logic.Word{Zero: ^ones, One: ones}
		}
		for i := range pis {
			ones := r.Uint64()
			pis[i] = logic.Word{Zero: ^ones, One: ones}
		}
		batches[bi] = fs.GoodSim(v1, pis, 0, ^uint64(0))
	}
	return d, fs, batches
}

// blockEdgePrefixes are the subset lengths, taken as prefixes of a
// domain's faults, that sit on the edges of DetectAll's blocks.
var blockEdgePrefixes = []int{1, detectBlock - 1, detectBlock, detectBlock + 1, 2*detectBlock + 1}

// TestDropParallelBitIdentical is the tentpole's concurrency contract:
// sharding the fault-dropping sweep across any worker count — and feeding
// the subset in any order — must reproduce the serial statuses and
// earliest-detecting-pattern marks exactly (run under -race via the
// Makefile's test-race gate).
func TestDropParallelBitIdentical(t *testing.T) {
	d, fs, batches := socHarness(t, 23, 3)
	baseSubset := fault.Universe(d).InDomain(0)

	run := func(workers int, subset []int) *fault.List {
		fs.Workers = workers
		defer func() { fs.Workers = 0 }()
		l := fault.Universe(d)
		for bi, b := range batches {
			fs.Drop(l, subset, b, bi*64)
		}
		return l
	}
	want := run(1, baseSubset)

	shuffled := append([]int(nil), baseSubset...)
	rand.New(rand.NewSource(99)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	same := func(name string, got, want *fault.List) {
		t.Helper()
		for fi := range want.Status {
			if got.Status[fi] != want.Status[fi] || got.DetectedBy[fi] != want.DetectedBy[fi] {
				t.Fatalf("%s: fault %d: status %v by %d, want %v by %d", name, fi,
					got.Status[fi], got.DetectedBy[fi], want.Status[fi], want.DetectedBy[fi])
			}
		}
	}
	cases := []struct {
		name    string
		workers int
		subset  []int
	}{
		{"workers=1/shuffled", 1, shuffled},
		{"workers=2", 2, baseSubset},
		{"workers=8", 8, baseSubset},
		{"workers=8/shuffled", 8, shuffled},
	}
	for _, c := range cases {
		same(c.name, run(c.workers, c.subset), want)
	}
	// The edges of the blocks DetectAll deals (detectBlock faults each):
	// one short of a block, an exact block, one fault over, and more
	// workers than blocks.
	for _, k := range blockEdgePrefixes {
		wantK := run(1, baseSubset[:k])
		for _, workers := range []int{2, 3, 8} {
			same(fmt.Sprintf("prefix=%d/workers=%d", k, workers), run(workers, baseSubset[:k]), wantK)
		}
	}
	detected := 0
	for fi := range want.Status {
		if want.Status[fi] == fault.Detected {
			detected++
		}
	}
	if detected == 0 {
		t.Fatal("degenerate test: nothing detected")
	}
}

// TestDetectionCountsParallelBitIdentical: the n-detect accounting must
// also be exact for any worker count and subset order.
func TestDetectionCountsParallelBitIdentical(t *testing.T) {
	d, fs, batches := socHarness(t, 31, 2)
	l := fault.Universe(d)
	subset := l.InDomain(0)

	run := func(workers int, subset []int) []int {
		fs.Workers = workers
		defer func() { fs.Workers = 0 }()
		counts := make([]int, len(l.Faults))
		for _, b := range batches {
			fs.DetectionCounts(l, subset, b, counts)
		}
		return counts
	}
	want := run(1, subset)

	shuffled := append([]int(nil), subset...)
	rand.New(rand.NewSource(7)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	for _, workers := range []int{2, 8} {
		got := run(workers, subset)
		for fi := range want {
			if got[fi] != want[fi] {
				t.Fatalf("workers=%d: fault %d: count %d, want %d", workers, fi, got[fi], want[fi])
			}
		}
	}
	for _, k := range blockEdgePrefixes {
		wantK := run(1, subset[:k])
		for _, workers := range []int{2, 3, 8} {
			got := run(workers, subset[:k])
			for fi := range wantK {
				if got[fi] != wantK[fi] {
					t.Fatalf("prefix=%d/workers=%d: fault %d: count %d, want %d", k, workers, fi, got[fi], wantK[fi])
				}
			}
		}
	}
	gotShuf := run(8, shuffled)
	total := 0
	for fi := range want {
		if gotShuf[fi] != want[fi] {
			t.Fatalf("shuffled: fault %d: count %d, want %d", fi, gotShuf[fi], want[fi])
		}
		total += want[fi]
	}
	if total == 0 {
		t.Fatal("degenerate test: no detections counted")
	}
}

// TestFailSlotsRepeatable: FailSlots returns one nonzero mask per distinct
// failing flop, and back-to-back calls on different faults must not leak
// signature state (the dense per-flop scratch is drained on return).
func TestFailSlotsRepeatable(t *testing.T) {
	d, fs, batches := socHarness(t, 57, 1)
	l := fault.Universe(d)
	b := batches[0]
	checked := 0
	for fi := 0; fi < len(l.Faults) && checked < 200; fi += 5 {
		f := &l.Faults[fi]
		flops, ms := fs.FailSlots(b, f)
		first := map[int]uint64{}
		for i, flop := range flops {
			if _, dup := first[flop]; dup || ms[i] == 0 {
				t.Fatalf("fault %s: flop %d repeated or with an empty mask", l.String(fi), flop)
			}
			first[flop] = ms[i]
		}
		fs.FailSlots(b, &l.Faults[(fi+1)%len(l.Faults)]) // dirty the scratch
		flops, ms = fs.FailSlots(b, f)
		if len(flops) != len(first) || len(ms) != len(flops) {
			t.Fatalf("fault %s: %d failing flops, first call %d", l.String(fi), len(flops), len(first))
		}
		for i, flop := range flops {
			if first[flop] != ms[i] {
				t.Fatalf("fault %s flop %d: slots %b, first call %b", l.String(fi), flop, ms[i], first[flop])
			}
		}
		if len(flops) > 0 {
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("degenerate test: no failing fault sampled")
	}
}

// TestCloneSharesTablesNotScratch: a clone must agree with its parent on
// every detection while owning disjoint scratch (exercised here by
// interleaving the two on different faults).
func TestCloneSharesTablesNotScratch(t *testing.T) {
	d, fs, batches := socHarness(t, 71, 1)
	l := fault.Universe(d)
	b := batches[0]
	c := fs.Clone()
	for fi := 0; fi < len(l.Faults) && fi < 150; fi++ {
		want := fs.Detect(b, &l.Faults[fi])
		c.Detect(b, &l.Faults[(fi+37)%len(l.Faults)]) // desync the clone's scratch
		if again := c.Detect(b, &l.Faults[fi]); again != want {
			t.Fatalf("fault %d: clone %b, parent %b", fi, again, want)
		}
	}
}

// TestGoodSimIntoReusesBatch checks the caller-owned batch: refilling a
// batch whose vectors exist allocates nothing, and every refill (LOC and
// LOS, defined and all-X primary inputs, every domain) equals a fresh
// batch simulated from the same inputs.
func TestGoodSimIntoReusesBatch(t *testing.T) {
	d, fs, _ := socHarness(t, 5, 0)
	r := rand.New(rand.NewSource(5))
	src := map[netlist.InstID]netlist.NetID{}
	prev := d.PIs[0]
	for _, f := range d.Flops {
		src[f] = prev
		prev = d.Insts[f].Out
	}
	var b Batch
	v1, pis := randomWords(r, len(d.Flops)), randomWords(r, len(d.PIs))
	fs.GoodSimInto(&b, v1, pis, 0, ^uint64(0))
	if a := testing.AllocsPerRun(20, func() { fs.GoodSimInto(&b, v1, pis, 0, ^uint64(0)) }); a != 0 {
		t.Errorf("GoodSimInto into a reused batch: %v allocations per call", a)
	}
	if a := testing.AllocsPerRun(20, func() { fs.GoodSimShiftInto(&b, v1, pis, 1, 7, src) }); a != 0 {
		t.Errorf("GoodSimShiftInto into a reused batch: %v allocations per call", a)
	}
	for k := 0; k < 4*len(d.Domains); k++ {
		dom := k % len(d.Domains)
		v1 := randomWords(r, len(d.Flops))
		var pis []logic.Word
		if k%3 != 0 {
			pis = randomWords(r, len(d.PIs))
		}
		valid := logic.ValidMask(1 + r.Intn(64))
		var got, want *Batch
		if k%2 == 0 {
			got, want = fs.GoodSimInto(&b, v1, pis, dom, valid), fs.GoodSim(v1, pis, dom, valid)
		} else {
			got = fs.GoodSimShiftInto(&b, v1, pis, dom, valid, src)
			want = fs.GoodSimShiftInto(new(Batch), v1, pis, dom, valid, src)
		}
		if got.Dom != want.Dom || got.Valid != want.Valid ||
			!slices.Equal(got.N1, want.N1) || !slices.Equal(got.N2, want.N2) {
			t.Fatalf("refill %d (dom %d): reused batch differs from a fresh one", k, dom)
		}
	}
}
