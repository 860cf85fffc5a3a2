package main

import (
	"path/filepath"
	"testing"
)

func defaultTol() tolerances {
	return tolerances{ns: 1.75, mem: 2, extra: 2.5, byteSlack: 1024, allocSlack: 4}
}

func report(results ...result) *benchReport {
	return &benchReport{Schema: benchSchemaVersion, Results: results}
}

func res(name string, ns, bytes, allocs float64) result {
	return result{Name: name, Iterations: 1, Metrics: map[string]float64{
		"ns/op": ns, "B/op": bytes, "allocs/op": allocs,
	}}
}

func failures(rows []row) []row {
	var out []row
	for _, r := range rows {
		if !r.ok {
			out = append(out, r)
		}
	}
	return out
}

func TestSelfComparePasses(t *testing.T) {
	base := report(res("Solve/n=64-8", 1.2e6, 4096, 12), res("Factor", 3e6, 0, 0))
	rows, pass := compare(base, base, defaultTol())
	if !pass {
		t.Fatalf("self-compare failed: %+v", failures(rows))
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 6", len(rows))
	}
}

func TestInjectedSlowdownFails(t *testing.T) {
	base := report(res("Solve", 1e6, 4096, 12))
	fresh := report(res("Solve", 2e6, 4096, 12)) // 2x > 1.75x budget
	rows, pass := compare(base, fresh, defaultTol())
	if pass {
		t.Fatal("2x ns/op slowdown passed the 1.75x gate")
	}
	fs := failures(rows)
	if len(fs) != 1 || fs[0].metric != "ns/op" {
		t.Fatalf("want exactly one ns/op failure, got %+v", fs)
	}

	// A time extra is checked one-sided against the 2.5x extra budget.
	mk := func(v float64) *benchReport {
		return report(result{Name: "ProfilePatternsSerial", Metrics: map[string]float64{"ns/pattern": v}})
	}
	rows, pass = compare(mk(1e5), mk(3e5), defaultTol())
	if pass {
		t.Fatal("a 3x slower ns/pattern passed the 2.5x extra budget")
	}
	if fs := failures(rows); len(fs) != 1 || fs[0].metric != "ns/pattern" {
		t.Fatalf("want exactly one ns/pattern failure, got %+v", fs)
	}
	if rows, pass := compare(mk(1e5), mk(2e5), defaultTol()); !pass {
		t.Fatalf("2x is within the 2.5x extra budget: %+v", failures(rows))
	}
}

func TestSpeedupAlwaysPasses(t *testing.T) {
	base := report(res("Solve", 2e6, 8192, 40))
	fresh := report(res("Solve", 1e5, 0, 0)) // 20x faster, fewer allocs
	if _, pass := compare(base, fresh, defaultTol()); !pass {
		t.Fatal("an improvement must never fail the gate")
	}
	// A time extra is a time too: 3x faster, past the 2.5x extra band.
	base = report(result{Name: "ATPGGenerate", Metrics: map[string]float64{"ns/fault": 3e4}})
	fresh = report(result{Name: "ATPGGenerate", Metrics: map[string]float64{"ns/fault": 1e4}})
	if rows, pass := compare(base, fresh, defaultTol()); !pass {
		t.Fatalf("a 3x faster ns/fault must pass: %+v", failures(rows))
	}
}

func TestWarningWidensTolerances(t *testing.T) {
	base := report(res("Solve", 1e6, 0, 0))
	fresh := report(res("Solve", 2e6, 0, 0))
	if _, pass := compare(base, fresh, defaultTol()); pass {
		t.Fatal("2x must fail without the warning")
	}
	base.Warning = "benchmarked on a single-CPU host"
	// 1.75 * 1.5 = 2.625x budget: the same 2x slowdown now passes.
	if rows, pass := compare(base, fresh, defaultTol()); !pass {
		t.Fatalf("warning did not widen tolerances: %+v", failures(rows))
	}
}

func TestGomaxprocsSuffixNormalized(t *testing.T) {
	base := report(res("Solve/n=64-8", 1e6, 0, 0)) // recorded on an 8-core host
	fresh := report(res("Solve/n=64", 1e6, 0, 0))  // single-CPU host: no suffix
	rows, pass := compare(base, fresh, defaultTol())
	if !pass {
		t.Fatalf("suffix mismatch broke matching: %+v", failures(rows))
	}
	for _, r := range rows {
		if r.name != "Solve/n=64" {
			t.Fatalf("name not normalized: %q", r.name)
		}
	}
}

func TestMissingBenchmarkFails(t *testing.T) {
	base := report(res("Solve", 1e6, 0, 0), res("Factor", 1e6, 0, 0))
	fresh := report(res("Solve", 1e6, 0, 0))
	if _, pass := compare(base, fresh, defaultTol()); pass {
		t.Fatal("a benchmark dropped from the fresh run must fail")
	}
}

func TestMissingMetricFails(t *testing.T) {
	base := report(result{Name: "Drop", Metrics: map[string]float64{"ns/op": 1e6, "faults/s": 5e4}})
	fresh := report(result{Name: "Drop", Metrics: map[string]float64{"ns/op": 1e6}})
	if _, pass := compare(base, fresh, defaultTol()); pass {
		t.Fatal("a metric dropped from the fresh run must fail")
	}
}

func TestNewBenchmarkIsInformational(t *testing.T) {
	base := report(res("Solve", 1e6, 0, 0))
	fresh := report(res("Solve", 1e6, 0, 0), res("Shiny", 9e9, 1e6, 1e3))
	rows, pass := compare(base, fresh, defaultTol())
	if !pass {
		t.Fatalf("new benchmark must not fail: %+v", failures(rows))
	}
	last := rows[len(rows)-1]
	if last.name != "Shiny" || last.note == "" {
		t.Fatalf("new benchmark not reported: %+v", last)
	}
}

func TestExtrasAreSymmetric(t *testing.T) {
	mk := func(v float64) *benchReport {
		return report(result{Name: "GridScale", Metrics: map[string]float64{"grid_nodes": v}})
	}
	// grid_nodes is a deterministic work measure: a 3x drop is as
	// suspicious as a 3x rise.
	if _, pass := compare(mk(3000), mk(1000), defaultTol()); pass {
		t.Fatal("3x drop in a deterministic extra must fail")
	}
	if _, pass := compare(mk(1000), mk(3000), defaultTol()); pass {
		t.Fatal("3x rise in a deterministic extra must fail")
	}
	if _, pass := compare(mk(1000), mk(2000), defaultTol()); !pass {
		t.Fatal("2x drift is within the 2.5x extra budget")
	}
}

func TestMemSlackCoversZeroBaselines(t *testing.T) {
	base := report(res("Packed", 1e6, 0, 0))
	fresh := report(res("Packed", 1e6, 512, 2)) // within the absolute slack
	if rows, pass := compare(base, fresh, defaultTol()); !pass {
		t.Fatalf("absolute slack should absorb tiny growth on zero baselines: %+v", failures(rows))
	}
	fresh = report(res("Packed", 1e6, 4096, 16)) // beyond it
	if _, pass := compare(base, fresh, defaultTol()); pass {
		t.Fatal("allocation growth beyond the slack on a zero baseline must fail")
	}
}

// TestCommittedBaselinesLoadAndSelfCompare is the acceptance check that
// `benchdiff` exits zero on the committed trajectories: each BENCH_*.json
// must parse, carry the v1 schema, and pass a self-compare.
func TestCommittedBaselinesLoadAndSelfCompare(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Skip("no committed BENCH_*.json baselines")
	}
	for _, p := range paths {
		rep, err := load(p)
		if err != nil {
			t.Fatalf("load %s: %v", p, err)
		}
		if rows, pass := compare(rep, rep, defaultTol()); !pass {
			t.Errorf("%s failed self-compare: %+v", p, failures(rows))
		}
	}
}
