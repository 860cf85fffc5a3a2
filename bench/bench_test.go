package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"

	"scap/internal/core"
	"scap/internal/fault"
	"scap/internal/logic"
	"scap/internal/soc"
)

// benchmarkJSON is the part of BENCHMARK.json the tests read.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// shrunk returns a workload at test size: the anchor scale, a small mesh
// where the workload sets one, and fewer re-simulations and trials.
func shrunk(t *testing.T, name string) workload {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	w.scale = 48
	if w.gridN > 0 {
		w.gridN = 48
	}
	w.impacts = min(w.impacts, 2)
	w.mcTrials = min(w.mcTrials, 8)
	return w
}

// testOpts makes exactly two passes (one untraced, one traced when
// tracing) after a single set-up.
func testOpts(trace bool, workers int) runOpts {
	return runOpts{seed: 1, trace: trace, workers: workers, setups: 1, minPasses: 2}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bj.Workloads), len(workloads))
	}
	e2e, layer := map[string]string{}, map[string]string{}
	for _, m := range bj.EndToEnd {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || m.Bound < 0 || m.Bound > 0.25 ||
			(m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end metric %+v breaks the BENCHMARK.json rules", m)
		}
		e2e[m.Name] = m.Unit
	}
	for _, m := range bj.PerLayer {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v breaks the BENCHMARK.json rules", m)
		}
		layer[m.Name] = m.Unit
	}
	for i, wj := range bj.Workloads {
		if wj.Name != workloads[i].name {
			t.Fatalf("BENCHMARK.json workload %d is %q, the benchmark's is %q", i, wj.Name, workloads[i].name)
		}
		w := shrunk(t, wj.Name)
		for _, trace := range []bool{false, true} {
			rep, err := run(w, testOpts(trace, 2))
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted != 2 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			want := e2e
			if trace {
				want = layer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w.name, trace, len(rep.Metrics), len(want))
			}
			for n, u := range want {
				m, ok := rep.Metrics[n]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, n)
				case m.Unit != u:
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w.name, n, m.Unit, u)
				case !trace && !(m.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, n, m.Value)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: metric %s = %v", w.name, n, m.Value)
				}
			}
		}
	}
}

// TestPaperAnchors pins the reproduction's anchors at scale 48, seed 1,
// on the configuration the benchmark builds.
func TestPaperAnchors(t *testing.T) {
	w := shrunk(t, "flow-s32")
	sys, err := core.Build(w.config(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	stat, err := sys.Statistical()
	if err != nil {
		t.Fatal(err)
	}
	conv, err := sys.ConventionalFlow(0)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(conv.Patterns); n != 128 {
		t.Errorf("conventional patterns = %d, want 128", n)
	}
	if fc := 100 * conv.Counts.FaultCoverage(); math.Abs(fc-86.17) > 0.005 {
		t.Errorf("fault coverage = %.4f%%, want 86.17%%", fc)
	}
	if d := stat.Case2.WorstVDD[soc.B5]; math.Abs(d-0.110) > 0.0005 {
		t.Errorf("B5 Case-2 drop = %.5f V, want 0.110 V", d)
	}
	// Table 4's pattern: the toggling pattern whose STW is nearest the
	// paper's 0.417 of the period.
	prof, err := sys.ProfilePatterns(conv)
	if err != nil {
		t.Fatal(err)
	}
	best := -1
	for i := range prof {
		if prof[i].Toggles > 0 && (best < 0 ||
			math.Abs(prof[i].STW-0.417*sys.Period) < math.Abs(prof[best].STW-0.417*sys.Period)) {
			best = i
		}
	}
	if r := prof[best].ChipSCAPVdd / prof[best].ChipCAPVdd; math.Abs(r-2.4) > 0.1 {
		t.Errorf("SCAP/CAP = %.3f, want 2.4", r)
	}
}

// workCounters are the per-layer counts that are a function of the
// inputs alone. Two counters are left out because they move with the
// worker count. The settle counters depend on which patterns a worker's
// launch scratch ran before. power.toggles_metered loses each worker's
// last DynamicIRDropAll pattern: a meter flushes its toggle count on its
// next Reset or ReportBlocks, and DynamicIRDropAll drops its meters
// without either.
var workCounters = []string{
	"atpg.runs", "atpg.patterns", "atpg.implication_waves", "atpg.spec_waves", "atpg.backtracks",
	"faultsim.batches", "faultsim.detects", "faultsim.cone_gate_evals", "faultsim.faults_dropped",
	"sim.launches", "sim.events_dispatched", "sim.events_suppressed",
	"pgrid.solves", "pgrid.factor_builds", "pgrid.mg.vcycles", "pgrid.sor.sweeps",
}

func TestWorkerCountInvariance(t *testing.T) {
	for _, name := range []string{"flow-s32", "signoff-random", "irdrop-mesh128"} {
		w := shrunk(t, name)
		var reps [2]*report
		for i, workers := range []int{1, 2} {
			rep, err := run(w, testOpts(true, workers))
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			reps[i] = rep
		}
		if reps[0].digest != reps[1].digest {
			t.Errorf("%s: output digest differs between 1 and 2 workers", name)
		}
		for _, c := range workCounters {
			if a, b := reps[0].perLayer[c], reps[1].perLayer[c]; a != b {
				t.Errorf("%s: %s = %v with 1 worker, %v with 2", name, c, a, b)
			}
		}
	}
}

func TestCorruptedDetectedByFailsChecks(t *testing.T) {
	w := shrunk(t, "signoff-random")
	rec := newRecorder()
	rec.begin("setup", 0, false)
	fx, err := w.setup(w.config(1, 2), rec)
	rec.end()
	if err != nil {
		t.Fatal(err)
	}
	rec.begin("pass", 0, false)
	out, err := w.pass(fx, rec)
	rec.end()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range runChecks(fx, out) {
		if !c.ok {
			t.Fatalf("check %s fails before corruption: %s", c.name, c.detail)
		}
	}

	// Point one detected fault at a pattern that does not detect it.
	fr := fx.set
	l, fs := fr.Faults, fx.sys.FSim
	detects := func(fi, p int) bool {
		pat := &fr.Patterns[p]
		b := fs.GoodSim(logic.PackSlots(nil, [][]logic.V{pat.V1}), logic.PackSlots(nil, [][]logic.V{pat.PIs}), fr.Dom, 1)
		return fs.Detect(b, &l.Faults[fi]) != 0
	}
	corrupted := false
	for fi := 0; fi < len(l.Status) && !corrupted; fi++ {
		if l.Status[fi] != fault.Detected {
			continue
		}
		for p := range fr.Patterns {
			if !detects(fi, p) {
				l.DetectedBy[fi] = p
				corrupted = true
				break
			}
		}
	}
	if !corrupted {
		t.Fatal("found no pattern that misses a detected fault")
	}
	failed := 0
	for _, c := range runChecks(fx, out) {
		if !c.ok {
			failed++
		}
	}
	if failed == 0 {
		t.Error("a corrupted DetectedBy entry passed every check")
	}
}
