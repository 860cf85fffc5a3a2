package core

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"scap/internal/pgrid"
	"scap/internal/soc"
)

// setWorkers temporarily overrides the shared system's worker knob.
func setWorkers(t *testing.T, sys *System, n int) {
	t.Helper()
	old := sys.Workers
	sys.Workers = n
	t.Cleanup(func() { sys.Workers = old })
}

// TestProfilePatternsDeterministicAcrossWorkers is the concurrency
// contract: the parallel profiling pipeline must produce field-by-field
// identical results for any worker count (run under -race via the
// Makefile's test-race gate).
func TestProfilePatternsDeterministicAcrossWorkers(t *testing.T) {
	sys, _, conv, _ := build(t)
	setWorkers(t, sys, 1)
	serial, err := sys.ProfilePatterns(conv)
	if err != nil {
		t.Fatal(err)
	}
	sys.Workers = 8
	par, err := sys.ProfilePatterns(conv)
	if err != nil {
		t.Fatal(err)
	}
	if len(par) != len(serial) {
		t.Fatalf("length %d vs %d", len(par), len(serial))
	}
	for i := range serial {
		s, p := &serial[i], &par[i]
		if s.Index != p.Index || s.Target != p.Target || s.TargetBlock != p.TargetBlock ||
			s.Step != p.Step || s.Toggles != p.Toggles {
			t.Fatalf("pattern %d: integer fields differ: %+v vs %+v", i, s, p)
		}
		if s.STW != p.STW || s.ChipSCAPVdd != p.ChipSCAPVdd || s.ChipCAPVdd != p.ChipCAPVdd {
			t.Fatalf("pattern %d: scalar fields differ: %+v vs %+v", i, s, p)
		}
		if len(s.BlockSCAPVdd) != len(p.BlockSCAPVdd) {
			t.Fatalf("pattern %d: block slice length", i)
		}
		for b := range s.BlockSCAPVdd {
			if s.BlockSCAPVdd[b] != p.BlockSCAPVdd[b] {
				t.Fatalf("pattern %d block %d: %v vs %v", i, b, s.BlockSCAPVdd[b], p.BlockSCAPVdd[b])
			}
		}
	}
}

// TestDynamicIRDropAllDeterministicAcrossWorkers: every pattern is an
// exact solve against the shared read-only factorization, so the batched
// analysis is bit-identical for any worker count. Each summary's profile
// comes from the pattern's one launch and must equal what
// ProfilePatterns returns for it.
func TestDynamicIRDropAllDeterministicAcrossWorkers(t *testing.T) {
	sys, _, conv, _ := build(t)
	setWorkers(t, sys, 1)
	prof, err := sys.ProfilePatterns(conv)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := sys.DynamicIRDropAll(conv, ModelSCAP)
	if err != nil {
		t.Fatal(err)
	}
	sys.Workers = 8
	par, err := sys.DynamicIRDropAll(conv, ModelSCAP)
	if err != nil {
		t.Fatal(err)
	}
	if len(par) != len(serial) || len(serial) != len(conv.Patterns) {
		t.Fatalf("lengths %d / %d / %d", len(par), len(serial), len(conv.Patterns))
	}
	for i := range serial {
		s, p := &serial[i], &par[i]
		for _, sum := range []*IRDropSummary{s, p} {
			if !reflect.DeepEqual(sum.PatternProfile, prof[i]) {
				t.Fatalf("pattern %d: profile %+v, ProfilePatterns %+v", i, sum.PatternProfile, prof[i])
			}
		}
		if s.Model != p.Model {
			t.Fatalf("pattern %d: model %v vs %v", i, s.Model, p.Model)
		}
		for b := range s.WorstVDD {
			if s.WorstVDD[b] != p.WorstVDD[b] || s.WorstVSS[b] != p.WorstVSS[b] {
				t.Fatalf("pattern %d block %d: VDD %v/%v VSS %v/%v",
					i, b, s.WorstVDD[b], p.WorstVDD[b], s.WorstVSS[b], p.WorstVSS[b])
			}
		}
	}
}

// TestDynamicIRDropAllMatchesSingle: each lane of a batched sweep and
// the one-pattern API's single solve of the same injection agree bit
// for bit. The single path injects every instance from a fresh meter,
// the batched one only the instances its worker's reused meter saw
// switch. The random-fill set is cut so its last group of pgrid.Lanes
// is partial; on the fill-0 set, whose block steps switch different
// instances, each of the two workers carries its meter across dozens
// of patterns.
func TestDynamicIRDropAllMatchesSingle(t *testing.T) {
	sys, _, conv, nt := build(t)
	setWorkers(t, sys, 2)
	random := *conv
	random.Patterns = conv.Patterns[:len(conv.Patterns)-1]
	if len(random.Patterns)%pgrid.Lanes == 0 {
		random.Patterns = random.Patterns[:len(random.Patterns)-1]
	}
	nb := sys.D.NumBlocks
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, set := range []*FlowResult{&random, nt} {
		all, err := sys.DynamicIRDropAll(set, ModelSCAP)
		if err != nil {
			t.Fatal(err)
		}
		for i := range set.Patterns {
			single, err := sys.DynamicIRDrop(&set.Patterns[i], set.Dom, ModelSCAP)
			if err != nil {
				t.Fatal(err)
			}
			if !same(all[i].STW, single.STW) {
				t.Fatalf("%s pattern %d: STW %v vs %v", set.Name, i, all[i].STW, single.STW)
			}
			for b := 0; b <= nb; b++ {
				if !same(all[i].WorstVDD[b], single.WorstVDD[b]) {
					t.Fatalf("%s pattern %d block %d: VDD %v vs %v", set.Name, i, b, all[i].WorstVDD[b], single.WorstVDD[b])
				}
				if !same(all[i].WorstVSS[b], single.WorstVSS[b]) {
					t.Fatalf("%s pattern %d block %d: VSS %v vs %v", set.Name, i, b, all[i].WorstVSS[b], single.WorstVSS[b])
				}
			}
		}
	}
}

// TestMonteCarloIRDrop: determinism across worker counts (23 trials,
// so the last group of pgrid.Lanes is partial), envelope ordering, and
// agreement in magnitude with the deterministic Case-2 analysis it
// refines.
func TestMonteCarloIRDrop(t *testing.T) {
	sys, stat, _, _ := build(t)
	const trials = 23
	setWorkers(t, sys, 1)
	serial, err := sys.MonteCarloIRDrop(trials, 7)
	if err != nil {
		t.Fatal(err)
	}
	nb := sys.D.NumBlocks
	for _, workers := range []int{3, 8} {
		sys.Workers = workers
		par, err := sys.MonteCarloIRDrop(trials, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, par) {
			t.Fatalf("workers=%d: MC stats differ from serial", workers)
		}
	}
	for b := 0; b <= nb; b++ {
		if serial.MeanVDD[b] < 0 || serial.P95VDD[b] < serial.MeanVDD[b]*0.5 ||
			serial.MaxVDD[b] < serial.P95VDD[b] {
			t.Fatalf("block %d: envelope ordering broken: mean %v p95 %v max %v",
				b, serial.MeanVDD[b], serial.P95VDD[b], serial.MaxVDD[b])
		}
	}
	// B5 stays the hot block under sampling, and the MC mean lands in the
	// same magnitude as the deterministic Case-2 worst drop.
	if serial.MeanVDD[soc.B5] <= 0 {
		t.Fatal("no B5 drop")
	}
	det := stat.Case2.WorstVDD[soc.B5]
	if m := serial.MeanVDD[soc.B5]; m < det/3 || m > det*3 {
		t.Fatalf("MC mean B5 drop %v far from deterministic %v", m, det)
	}
	if _, err := sys.MonteCarloIRDrop(0, 1); err == nil {
		t.Fatal("zero trials accepted")
	}
}

// TestGradeDetectionsDeterministicAcrossWorkers: the batched grading
// engine packs 64 patterns per good-machine batch and fans both the
// timing launches and the failure-signature propagations across the
// pool; the merged report must be bit-identical for any worker count.
func TestGradeDetectionsDeterministicAcrossWorkers(t *testing.T) {
	sys, _, conv, _ := build(t)
	setWorkers(t, sys, 1)
	serial, err := sys.GradeDetections(conv, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		sys.Workers = workers
		par, err := sys.GradeDetections(conv, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, par) {
			t.Fatalf("workers=%d: report differs from serial\nserial: %+v\npar:    %+v",
				workers, summary(serial), summary(par))
		}
	}
}

func summary(r *QualityReport) string {
	return fmt.Sprintf("%d grades, mean %.9f, worst %.9f, best %.9f, deciles %v",
		len(r.Grades), r.MeanSlack, r.WorstSlack, r.BestSlack, r.Deciles)
}

// TestScreenPatternsDeterministicAcrossWorkers: batches write
// index-addressed slots and the per-slot energies accumulate in fixed
// instance order, so the screen is bit-identical for any worker count,
// and for calls that run at once on one system and share its buffers.
func TestScreenPatternsDeterministicAcrossWorkers(t *testing.T) {
	sys, _, conv, _ := build(t)
	setWorkers(t, sys, 1)
	serial, err := sys.ScreenPatterns(conv)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		sys.Workers = workers
		par, err := sys.ScreenPatterns(conv)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, par) {
			t.Fatalf("workers=%d: screens differ from serial", workers)
		}
	}
	sys.Workers = 2
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			got, err := sys.ScreenPatterns(conv)
			if err != nil {
				t.Error(err)
			} else if !reflect.DeepEqual(serial, got) {
				t.Errorf("concurrent call %d: screens differ from serial", c)
			}
		}(c)
	}
	wg.Wait()
}

// TestScreenPatternsMatchesOneByOne screens a set with a full and a
// partial 64-pattern chunk on one worker, so the second chunk reuses the
// first one's packing buffers, and checks every pattern reads the same
// estimate as when it is screened alone: no slot of an earlier chunk leaks.
func TestScreenPatternsMatchesOneByOne(t *testing.T) {
	sys, _, conv, _ := build(t)
	setWorkers(t, sys, 1)
	const n = 100
	if len(conv.Patterns) < n {
		t.Fatalf("flow has %d patterns, want at least %d", len(conv.Patterns), n)
	}
	set := &FlowResult{Dom: conv.Dom, Patterns: conv.Patterns[:n]}
	screens, err := sys.ScreenPatterns(set)
	if err != nil {
		t.Fatal(err)
	}
	for i := range set.Patterns {
		alone, err := sys.ScreenPatterns(&FlowResult{Dom: conv.Dom, Patterns: set.Patterns[i : i+1]})
		if err != nil {
			t.Fatal(err)
		}
		got, want := screens[i], alone[0]
		if got.Toggles != want.Toggles || got.EstChipCAPVdd != want.EstChipCAPVdd ||
			!reflect.DeepEqual(got.EstBlockCAPVdd, want.EstBlockCAPVdd) {
			t.Fatalf("pattern %d: in the set %+v, alone %+v", i, got, want)
		}
	}
}

// TestScreenTopSelection pins the triage contract: the selection is the
// requested fraction (rounded up), sorted ascending, and every selected
// pattern's block estimate dominates every rejected one's.
func TestScreenTopSelection(t *testing.T) {
	sys, _, conv, _ := build(t)
	screens, err := sys.ScreenPatterns(conv)
	if err != nil {
		t.Fatal(err)
	}
	if len(screens) != len(conv.Patterns) {
		t.Fatalf("screened %d of %d patterns", len(screens), len(conv.Patterns))
	}
	const block = soc.B5
	top := ScreenTop(screens, block, 0.25)
	wantN := (len(screens) + 3) / 4
	if len(top) != wantN {
		t.Fatalf("kept %d, want %d", len(top), wantN)
	}
	sel := make(map[int]bool, len(top))
	minSel := math.Inf(1)
	for i, pi := range top {
		if i > 0 && top[i] <= top[i-1] {
			t.Fatal("selection not sorted ascending")
		}
		sel[pi] = true
		if v := screens[pi].EstBlockCAPVdd[block]; v < minSel {
			minSel = v
		}
	}
	for i := range screens {
		if !sel[i] && screens[i].EstBlockCAPVdd[block] > minSel {
			t.Fatalf("rejected pattern %d estimate %v above kept minimum %v",
				i, screens[i].EstBlockCAPVdd[block], minSel)
		}
	}
	// The exact profiler accepts the selection directly.
	prof, err := sys.ProfilePatternsAt(conv, top)
	if err != nil {
		t.Fatal(err)
	}
	if len(prof) != len(top) {
		t.Fatalf("profiled %d, want %d", len(prof), len(top))
	}
	for i, pi := range top {
		if prof[i].Index != pi {
			t.Fatalf("profile %d carries index %d, want %d", i, prof[i].Index, pi)
		}
	}
}
