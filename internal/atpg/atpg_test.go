package atpg

import (
	"testing"

	"scap/internal/fault"
	"scap/internal/faultsim"
	"scap/internal/logic"
	"scap/internal/netlist"
	"scap/internal/scan"
	"scap/internal/sim"
	"scap/internal/soc"
)

// rig bundles everything an ATPG run needs on the small SOC.
type rig struct {
	d  *netlist.Design
	s  *sim.Simulator
	fs *faultsim.Sim
	l  *fault.List
	sc *scan.Scan
}

func newRig(t *testing.T, scale int) *rig {
	t.Helper()
	d, _, err := soc.Generate(soc.DefaultConfig(scale))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scan.Insert(d, scan.Config{NumChains: 16})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(d)
	if err != nil {
		t.Fatal(err)
	}
	fs := faultsim.New(s)
	return &rig{d: d, s: s, fs: fs, l: fault.Universe(d), sc: sc}
}

func TestRunDetectsMostClkaFaults(t *testing.T) {
	r := newRig(t, 96)
	res, err := Run(r.fs, r.l, r.sc, Options{Dom: 0, Fill: FillRandom, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) == 0 {
		t.Fatal("no patterns generated")
	}
	c := res.Counts
	t.Logf("clka: %d faults, %d detected, %d aborted, %d untestable, %d patterns, coverage %.1f%%",
		c.Total, c.Detected, c.Aborted, c.Untestable, len(res.Patterns), 100*c.TestCoverage())
	if c.TestCoverage() < 0.70 {
		t.Fatalf("test coverage %.1f%% too low", 100*c.TestCoverage())
	}
	// Patterns must be fully specified.
	for pi, p := range res.Patterns {
		for i, v := range p.V1 {
			if v == logic.X {
				t.Fatalf("pattern %d flop %d is X after fill", pi, i)
			}
		}
		for i, v := range p.PIs {
			if v == logic.X {
				t.Fatalf("pattern %d PI %d is X after fill", pi, i)
			}
		}
	}
}

// TestEveryPatternDetectsItsTarget independently verifies the PODEM result
// with the fault simulator: the generated, filled pattern must detect the
// fault it was generated for.
func TestEveryPatternDetectsItsTarget(t *testing.T) {
	r := newRig(t, 96)
	res, err := Run(r.fs, r.l, r.sc, Options{Dom: 0, Fill: Fill0, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, p := range res.Patterns {
		v1 := make([]logic.Word, len(r.d.Flops))
		pis := make([]logic.Word, len(r.d.PIs))
		for i, v := range p.V1 {
			v1[i] = logic.Splat(v)
		}
		for i, v := range p.PIs {
			pis[i] = logic.Splat(v)
		}
		b := r.fs.GoodSim(v1, pis, 0, 1)
		if det := r.fs.Detect(b, &r.l.Faults[p.Target]); det&1 == 0 {
			t.Fatalf("pattern for fault %s does not detect it", r.l.String(p.Target))
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("nothing checked")
	}
	t.Logf("verified %d patterns", checked)
}

func TestRunDeterministic(t *testing.T) {
	r1 := newRig(t, 96)
	r2 := newRig(t, 96)
	res1, err := Run(r1.fs, r1.l, r1.sc, Options{Dom: 0, Fill: FillRandom, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Run(r2.fs, r2.l, r2.sc, Options{Dom: 0, Fill: FillRandom, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.Patterns) != len(res2.Patterns) {
		t.Fatalf("pattern counts differ: %d vs %d", len(res1.Patterns), len(res2.Patterns))
	}
	for i := range res1.Patterns {
		for j := range res1.Patterns[i].V1 {
			if res1.Patterns[i].V1[j] != res2.Patterns[i].V1[j] {
				t.Fatalf("pattern %d differs", i)
			}
		}
	}
}

func TestBlockRestrictionTargetsOnlyThoseBlocks(t *testing.T) {
	r := newRig(t, 96)
	res, err := Run(r.fs, r.l, r.sc, Options{
		Dom: 0, Fill: Fill0, Seed: 4, Blocks: []int{soc.B1, soc.B2},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, fi := range res.Subset {
		b := r.l.Faults[fi].Block
		if b != soc.B1 && b != soc.B2 {
			t.Fatalf("subset contains fault in block %d", b)
		}
	}
	for _, p := range res.Patterns {
		b := r.l.Faults[p.Target].Block
		if b != soc.B1 && b != soc.B2 {
			t.Fatalf("pattern targets block %d", b)
		}
	}
}

func TestFillStrategies(t *testing.T) {
	r := newRig(t, 96)
	fil := newFiller(r.d, r.sc, Fill0, 1)
	cube := Cube{State: map[int]logic.V{3: logic.One}, PIs: map[int]logic.V{}}
	v1, _ := fil.Expand(cube)
	if v1[3] != logic.One {
		t.Fatal("care bit lost")
	}
	zeros := 0
	for i, v := range v1 {
		if i != 3 && v == logic.Zero {
			zeros++
		}
	}
	if zeros != len(v1)-1 {
		t.Fatalf("fill0 left %d non-zero bits", len(v1)-1-zeros)
	}

	fil1 := newFiller(r.d, r.sc, Fill1, 1)
	v1b, _ := fil1.Expand(Cube{State: map[int]logic.V{}, PIs: map[int]logic.V{}})
	for i, v := range v1b {
		if v != logic.One {
			t.Fatalf("fill1 bit %d = %v", i, v)
		}
	}

	// Adjacent: a single care bit in the middle of a chain spreads both ways.
	filA := newFiller(r.d, r.sc, FillAdjacent, 1)
	chain := r.sc.Chains[0]
	flopIdx := map[netlist.InstID]int{}
	for i, f := range r.d.Flops {
		flopIdx[f] = i
	}
	mid := flopIdx[chain.Flops[len(chain.Flops)/2]]
	v1c, _ := filA.Expand(Cube{State: map[int]logic.V{mid: logic.One}, PIs: map[int]logic.V{}})
	for _, f := range chain.Flops {
		if v1c[flopIdx[f]] != logic.One {
			t.Fatal("adjacent fill did not spread the care bit across the chain")
		}
	}

	// Random fill must produce both values somewhere.
	filR := newFiller(r.d, r.sc, FillRandom, 7)
	v1d, _ := filR.Expand(Cube{State: map[int]logic.V{}, PIs: map[int]logic.V{}})
	n0, n1 := 0, 0
	for _, v := range v1d {
		if v == logic.Zero {
			n0++
		} else {
			n1++
		}
	}
	if n0 == 0 || n1 == 0 {
		t.Fatalf("random fill degenerate: %d zeros, %d ones", n0, n1)
	}
}

func TestFillZeroQuietsUntargetedBlocks(t *testing.T) {
	// With fill-0 and faults targeted only outside B5, the B5 scan cells
	// must be (almost) all zero in every pattern — the paper's mechanism
	// for keeping the hot block quiet.
	r := newRig(t, 96)
	res, err := Run(r.fs, r.l, r.sc, Options{
		Dom: 0, Fill: Fill0, Seed: 5,
		Blocks: []int{soc.B1, soc.B2, soc.B3, soc.B4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) == 0 {
		t.Fatal("no patterns")
	}
	totalB5, onesB5 := 0, 0
	for _, p := range res.Patterns {
		for i, f := range r.d.Flops {
			inst := r.d.Inst(f)
			if inst.Block == soc.B5 && inst.Domain == 0 {
				totalB5++
				if p.V1[i] == logic.One {
					onesB5++
				}
			}
		}
	}
	if frac := float64(onesB5) / float64(totalB5); frac > 0.05 {
		t.Fatalf("B5 cells are %.1f%% ones under fill-0 outside-B5 targeting", 100*frac)
	}
}

// TestAdjacentFillMinimizesShiftPower is the classic fill trade-off: on
// real ATPG patterns, adjacent fill must give far fewer transitions
// between neighbouring cells of a chain (the bits that toggle the chain
// while it shifts) than random fill, and fill-0 fewer too.
func TestAdjacentFillMinimizesShiftPower(t *testing.T) {
	r := newRig(t, 96)
	flopIdx := make(map[netlist.InstID]int, len(r.d.Flops))
	for i, f := range r.d.Flops {
		flopIdx[f] = i
	}
	rates := map[Fill]float64{}
	for _, fill := range []Fill{FillRandom, FillAdjacent, Fill0} {
		res, err := Run(r.fs, fault.Universe(r.d), r.sc, Options{
			Dom: 0, Fill: fill, Seed: 3, MaxPatterns: 40,
		})
		if err != nil {
			t.Fatal(err)
		}
		transitions, pairs := 0, 0
		for _, p := range res.Patterns {
			for _, c := range r.sc.Chains {
				for k := 1; k < len(c.Flops); k++ {
					pairs++
					if p.V1[flopIdx[c.Flops[k-1]]] != p.V1[flopIdx[c.Flops[k]]] {
						transitions++
					}
				}
			}
		}
		rates[fill] = float64(transitions) / float64(pairs)
	}
	t.Logf("shift transition rates: random=%.3f adjacent=%.3f fill0=%.3f",
		rates[FillRandom], rates[FillAdjacent], rates[Fill0])
	if rates[FillAdjacent] >= rates[FillRandom]/2 {
		t.Fatalf("adjacent fill (%.3f) not well below random (%.3f)",
			rates[FillAdjacent], rates[FillRandom])
	}
	if rates[Fill0] >= rates[FillRandom] {
		t.Fatal("fill0 should also beat random on shift activity")
	}
}

func TestLOSMode(t *testing.T) {
	r := newRig(t, 96)
	res, err := Run(r.fs, r.l, r.sc, Options{Dom: 0, Mode: LOS, Fill: FillRandom, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) == 0 {
		t.Fatal("LOS generated no patterns")
	}
	c := res.Counts
	t.Logf("LOS: %d detected / %d, %d patterns", c.Detected, c.Total, len(res.Patterns))
	if c.Detected == 0 {
		t.Fatal("LOS detected nothing")
	}
	// Verify a sample of patterns against the shift-mode fault simulator.
	src := shiftSources(r.d, r.sc)
	for i, p := range res.Patterns {
		if i >= 20 {
			break
		}
		v1 := make([]logic.Word, len(r.d.Flops))
		pis := make([]logic.Word, len(r.d.PIs))
		for j, v := range p.V1 {
			v1[j] = logic.Splat(v)
		}
		for j, v := range p.PIs {
			pis[j] = logic.Splat(v)
		}
		b := r.fs.GoodSimShiftInto(new(faultsim.Batch), v1, pis, 0, 1, src)
		if det := r.fs.Detect(b, &r.l.Faults[p.Target]); det&1 == 0 {
			t.Fatalf("LOS pattern %d does not detect its target %s", i, r.l.String(p.Target))
		}
	}
}

func TestMaxPatternsHonored(t *testing.T) {
	r := newRig(t, 96)
	res, err := Run(r.fs, r.l, r.sc, Options{Dom: 0, Fill: Fill0, Seed: 7, MaxPatterns: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) > 5 {
		t.Fatalf("%d patterns exceed MaxPatterns", len(res.Patterns))
	}
}

func TestModeAndFillStrings(t *testing.T) {
	if LOC.String() != "LOC" || LOS.String() != "LOS" {
		t.Fatal("mode strings")
	}
	if FillRandom.String() != "random" || Fill0.String() != "fill0" ||
		Fill1.String() != "fill1" || FillAdjacent.String() != "adjacent" {
		t.Fatal("fill strings")
	}
}

func TestFillBlockAware(t *testing.T) {
	r := newRig(t, 96)
	res, err := Run(r.fs, r.l, r.sc, Options{
		Dom: 0, Fill: FillBlockAware, Seed: 11,
		Blocks: []int{soc.B1, soc.B2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) == 0 {
		t.Fatal("no patterns")
	}
	// Targeted blocks get a healthy mix of ones; untargeted blocks stay
	// (almost) all zero.
	onesIn, totIn, onesOut, totOut := 0, 0, 0, 0
	for _, p := range res.Patterns {
		for i, f := range r.d.Flops {
			inst := r.d.Inst(f)
			if inst.Domain != 0 {
				continue
			}
			if inst.Block == soc.B1 || inst.Block == soc.B2 {
				totIn++
				if p.V1[i] == logic.One {
					onesIn++
				}
			} else {
				totOut++
				if p.V1[i] == logic.One {
					onesOut++
				}
			}
		}
	}
	inFrac := float64(onesIn) / float64(totIn)
	outFrac := float64(onesOut) / float64(totOut)
	t.Logf("ones fraction: targeted %.2f, untargeted %.3f", inFrac, outFrac)
	if inFrac < 0.3 || inFrac > 0.7 {
		t.Fatalf("targeted blocks not randomized: %.2f", inFrac)
	}
	if outFrac > 0.05 {
		t.Fatalf("untargeted blocks not quiet: %.3f", outFrac)
	}
	// Patterns still detect their targets.
	for i, p := range res.Patterns {
		if i >= 10 {
			break
		}
		v1 := make([]logic.Word, len(r.d.Flops))
		pis := make([]logic.Word, len(r.d.PIs))
		for j, v := range p.V1 {
			v1[j] = logic.Splat(v)
		}
		for j, v := range p.PIs {
			pis[j] = logic.Splat(v)
		}
		b := r.fs.GoodSim(v1, pis, 0, 1)
		if det := r.fs.Detect(b, &r.l.Faults[p.Target]); det&1 == 0 {
			t.Fatalf("block-aware pattern %d misses its target", i)
		}
	}
}

func TestCompactReversePreservesCoverage(t *testing.T) {
	r := newRig(t, 96)
	res, err := Run(r.fs, r.l, r.sc, Options{Dom: 0, Fill: FillRandom, Seed: 13, Compaction: -1})
	if err != nil {
		t.Fatal(err)
	}
	before := r.l.CountOf(res.Subset)

	l2 := fault.Universe(r.d)
	kept, err := CompactReverse(r.fs, l2, res.Patterns, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) > len(res.Patterns) {
		t.Fatal("compaction grew the set")
	}
	t.Logf("reverse compaction: %d -> %d patterns", len(res.Patterns), len(kept))
	// Re-simulate the kept set from scratch: detected count must match.
	l3 := fault.Universe(r.d)
	subset := l3.InDomain(0)
	for base := 0; base < len(kept); base += 64 {
		hi := base + 64
		if hi > len(kept) {
			hi = len(kept)
		}
		chunk := kept[base:hi]
		v1 := make([]logic.Word, len(r.d.Flops))
		pis := make([]logic.Word, len(r.d.PIs))
		for s := range chunk {
			for i, v := range chunk[s].V1 {
				v1[i] = v1[i].Set(uint(s), v)
			}
			for i, v := range chunk[s].PIs {
				pis[i] = pis[i].Set(uint(s), v)
			}
		}
		valid := uint64(1)<<uint(hi-base) - 1
		if hi-base == 64 {
			valid = ^uint64(0)
		}
		b := r.fs.GoodSim(v1, pis, 0, valid)
		r.fs.Drop(l3, subset, b, base)
	}
	after := l3.CountOf(subset)
	if after.Detected < before.Detected {
		t.Fatalf("compaction lost coverage: %d -> %d detected", before.Detected, after.Detected)
	}
	// A fresh-list precondition violation errors out.
	if _, err := CompactReverse(r.fs, l3, kept, 0); err == nil {
		t.Fatal("non-fresh list accepted")
	}
}

func TestDetectionCounts(t *testing.T) {
	r := newRig(t, 96)
	res, err := Run(r.fs, r.l, r.sc, Options{Dom: 0, Fill: FillRandom, Seed: 14, MaxPatterns: 64})
	if err != nil {
		t.Fatal(err)
	}
	l2 := fault.Universe(r.d)
	subset := l2.InDomain(0)
	counts := make([]int, len(l2.Faults))
	v1 := make([]logic.Word, len(r.d.Flops))
	pis := make([]logic.Word, len(r.d.PIs))
	for s := range res.Patterns {
		for i, v := range res.Patterns[s].V1 {
			v1[i] = v1[i].Set(uint(s), v)
		}
		for i, v := range res.Patterns[s].PIs {
			pis[i] = pis[i].Set(uint(s), v)
		}
	}
	valid := uint64(1)<<uint(len(res.Patterns)) - 1
	if len(res.Patterns) == 64 {
		valid = ^uint64(0)
	}
	b := r.fs.GoodSim(v1, pis, 0, valid)
	r.fs.DetectionCounts(l2, subset, b, counts)
	multi, total := 0, 0
	for _, fi := range subset {
		if counts[fi] > 0 {
			total++
		}
		if counts[fi] > 1 {
			multi++
		}
	}
	t.Logf("n-detect over %d patterns: %d faults detected, %d more than once", len(res.Patterns), total, multi)
	if total == 0 || multi == 0 {
		t.Fatal("detection counts degenerate")
	}
}

// TestRunAndCompactParallelBitIdentical: an entire ATPG run (whose batch
// flushes drop faults through the worker-sharded sweep) and the
// reverse-order compaction must both be bit-identical for any worker
// count (run under -race via the Makefile's test-race gate).
func TestRunAndCompactParallelBitIdentical(t *testing.T) {
	r1 := newRig(t, 96)
	res1, err := Run(r1.fs, r1.l, r1.sc, Options{Dom: 0, Fill: FillRandom, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	l1 := fault.Universe(r1.d)
	kept1, err := CompactReverse(r1.fs, l1, res1.Patterns, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		r2 := newRig(t, 96)
		r2.fs.Workers = workers
		res2, err := Run(r2.fs, r2.l, r2.sc, Options{Dom: 0, Fill: FillRandom, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		if len(res2.Patterns) != len(res1.Patterns) {
			t.Fatalf("workers=%d: %d patterns vs serial %d", workers, len(res2.Patterns), len(res1.Patterns))
		}
		for i := range res1.Patterns {
			p1, p2 := &res1.Patterns[i], &res2.Patterns[i]
			if p1.Target != p2.Target {
				t.Fatalf("workers=%d: pattern %d target %d vs %d", workers, i, p2.Target, p1.Target)
			}
			for j := range p1.V1 {
				if p1.V1[j] != p2.V1[j] {
					t.Fatalf("workers=%d: pattern %d V1 differs", workers, i)
				}
			}
		}
		for fi := range r1.l.Status {
			if r1.l.Status[fi] != r2.l.Status[fi] || r1.l.DetectedBy[fi] != r2.l.DetectedBy[fi] {
				t.Fatalf("workers=%d: fault %d: %v by %d vs serial %v by %d", workers, fi,
					r2.l.Status[fi], r2.l.DetectedBy[fi], r1.l.Status[fi], r1.l.DetectedBy[fi])
			}
		}
		l2 := fault.Universe(r2.d)
		kept2, err := CompactReverse(r2.fs, l2, res2.Patterns, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(kept2) != len(kept1) {
			t.Fatalf("workers=%d: compacted to %d vs serial %d", workers, len(kept2), len(kept1))
		}
		for i := range kept1 {
			if kept1[i].Target != kept2[i].Target {
				t.Fatalf("workers=%d: kept pattern %d differs", workers, i)
			}
		}
		for fi := range l1.Status {
			if l1.Status[fi] != l2.Status[fi] || l1.DetectedBy[fi] != l2.DetectedBy[fi] {
				t.Fatalf("workers=%d: compaction fault %d status differs", workers, fi)
			}
		}
	}
}

func TestRunRejectsDomainOutOfRange(t *testing.T) {
	r := newRig(t, 96)
	for _, dom := range []int{-1, len(r.d.Domains)} {
		if _, err := Run(r.fs, r.l, r.sc, Options{Dom: dom, Fill: FillRandom, Seed: 1}); err == nil {
			t.Errorf("Dom %d with %d domains: no error", dom, len(r.d.Domains))
		}
	}
	for fi, st := range r.l.Status {
		if st != fault.Undetected {
			t.Fatalf("rejected run touched fault %d: status %v", fi, st)
		}
	}
}

func TestRunRejectsBlockOutOfRange(t *testing.T) {
	r := newRig(t, 96)
	for _, b := range []int{-1, r.d.NumBlocks} {
		if _, err := Run(r.fs, r.l, r.sc, Options{Dom: 0, Fill: Fill0, Seed: 1, Blocks: []int{soc.B1, b}}); err == nil {
			t.Errorf("Blocks {B1, %d} with %d blocks: no error", b, r.d.NumBlocks)
		}
	}
	for fi, st := range r.l.Status {
		if st != fault.Undetected {
			t.Fatalf("rejected run touched fault %d: status %v", fi, st)
		}
	}
}
