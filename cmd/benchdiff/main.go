// Command benchdiff is the perf-regression gate: it compares a fresh
// `make bench-json` report against a committed baseline BENCH_*.json
// and fails (exit 1) when any tracked metric regressed beyond its
// tolerance, printing a pass/fail table either way. CI runs it so a
// slowdown fails the build instead of silently landing in the
// trajectory files.
//
// Comparison rules, per metric unit:
//
//   - ns/op: fresh must stay within -tol-ns × base (ratio; timing is
//     noisy across hosts, so the default is generous).
//   - B/op and allocs/op: fresh ≤ base × -tol-mem plus a small absolute
//     slack (1024 B, 4 allocs) so zero-allocation baselines don't turn
//     single-byte jitter into failures.
//   - extra b.ReportMetric metrics (waves/pattern, grid_nodes, …):
//     these are deterministic work measures, compared symmetrically —
//     the larger of fresh/base and base/fresh must stay within
//     -tol-extra.
//   - extra metrics whose unit starts with "ns/" (ns/fault, ns/pattern)
//     are times: fresh must stay within -tol-extra × base, one-sided
//     like ns/op, so a speed-up never fails.
//
// Benchmark names are normalized by stripping the trailing
// "-GOMAXPROCS" suffix, so a file recorded on a single-CPU host (no
// suffix) still matches a multi-core run. If either report carries the
// benchjson single-CPU `warning`, every tolerance is widened ×1.5 —
// such baselines are known-noisy. A benchmark or metric present in the
// baseline but missing from the fresh run is a failure (a silently
// dropped benchmark would otherwise un-track its metrics); benchmarks
// only in the fresh run are reported as new and pass.
//
// Usage:
//
//	benchdiff -base BENCH_pgrid.json -fresh fresh/BENCH_pgrid.json [-tol-ns 1.75] [-tol-mem 2] [-tol-extra 2.5]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
)

// benchSchemaVersion must match cmd/benchjson's output.
const benchSchemaVersion = "scap/bench-report/v1"

type result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

type benchReport struct {
	Schema  string   `json:"schema"`
	Warning string   `json:"warning,omitempty"`
	Results []result `json:"results"`
}

// tolerances carries the per-unit regression budgets.
type tolerances struct {
	ns, mem, extra        float64
	byteSlack, allocSlack float64
}

// row is one metric comparison in the output table.
type row struct {
	name, metric string
	base, fresh  float64
	ok           bool
	note         string
}

// gomaxprocsSuffix is the "-N" tail `go test -bench` appends on
// multi-core hosts; single-CPU hosts omit it, so names must be
// normalized before files from different hosts can be matched.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

func normalize(name string) string {
	return gomaxprocsSuffix.ReplaceAllString(name, "")
}

// compare diffs fresh against base under tol and returns the table rows
// (baseline order, metrics sorted per benchmark) plus overall pass.
func compare(base, fresh *benchReport, tol tolerances) ([]row, bool) {
	if base.Warning != "" || fresh.Warning != "" {
		tol.ns *= 1.5
		tol.mem *= 1.5
		tol.extra *= 1.5
	}
	freshBy := make(map[string]result, len(fresh.Results))
	for _, r := range fresh.Results {
		freshBy[normalize(r.Name)] = r
	}
	var rows []row
	pass := true
	for _, br := range base.Results {
		name := normalize(br.Name)
		fr, ok := freshBy[name]
		if !ok {
			rows = append(rows, row{name: name, metric: "-", ok: false, note: "missing from fresh run"})
			pass = false
			continue
		}
		metrics := make([]string, 0, len(br.Metrics))
		for m := range br.Metrics {
			metrics = append(metrics, m)
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			b := br.Metrics[m]
			f, ok := fr.Metrics[m]
			if !ok {
				rows = append(rows, row{name: name, metric: m, base: b, ok: false, note: "metric missing from fresh run"})
				pass = false
				continue
			}
			r := check(m, b, f, tol)
			r.name = name
			if !r.ok {
				pass = false
			}
			rows = append(rows, r)
		}
	}
	// Benchmarks only in the fresh run: informational, never failing.
	baseNames := make(map[string]bool, len(base.Results))
	for _, r := range base.Results {
		baseNames[normalize(r.Name)] = true
	}
	freshSorted := append([]result(nil), fresh.Results...)
	sort.Slice(freshSorted, func(a, b int) bool { return freshSorted[a].Name < freshSorted[b].Name })
	for _, r := range freshSorted {
		if !baseNames[normalize(r.Name)] {
			rows = append(rows, row{name: normalize(r.Name), metric: "-", ok: true, note: "new benchmark (not in baseline)"})
		}
	}
	return rows, pass
}

// check applies the unit's rule to one (base, fresh) metric pair.
func check(metric string, base, fresh float64, tol tolerances) row {
	r := row{metric: metric, base: base, fresh: fresh}
	switch {
	case strings.HasPrefix(metric, "ns/"):
		// Times (ns/op, and extras such as ns/fault): only a slowdown is
		// a regression.
		budget := tol.extra
		if metric == "ns/op" {
			budget = tol.ns
		}
		r.ok = base <= 0 || fresh <= base*budget
		if !r.ok {
			r.note = fmt.Sprintf("%.2fx > %.2fx budget", fresh/base, budget)
		}
	case metric == "B/op":
		limit := base*tol.mem + tol.byteSlack
		r.ok = fresh <= limit
		if !r.ok {
			r.note = fmt.Sprintf("above %.0f limit", limit)
		}
	case metric == "allocs/op":
		limit := base*tol.mem + tol.allocSlack
		r.ok = fresh <= limit
		if !r.ok {
			r.note = fmt.Sprintf("above %.0f limit", limit)
		}
	default:
		// Deterministic extras: drift in either direction is suspect.
		switch {
		case base == 0 && fresh == 0:
			r.ok = true
		case base <= 0 || fresh <= 0:
			r.ok = false
			r.note = "zero/sign flip vs baseline"
		default:
			ratio := fresh / base
			if ratio < 1 {
				ratio = 1 / ratio
			}
			r.ok = ratio <= tol.extra
			if !r.ok {
				r.note = fmt.Sprintf("%.2fx drift > %.2fx budget", ratio, tol.extra)
			}
		}
	}
	return r
}

func load(path string) (*benchReport, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep benchReport
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Schema != benchSchemaVersion {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rep.Schema, benchSchemaVersion)
	}
	return &rep, nil
}

func main() {
	basePath := flag.String("base", "", "committed baseline bench report (required)")
	freshPath := flag.String("fresh", "", "freshly produced bench report (required)")
	tolNs := flag.Float64("tol-ns", 1.75, "ns/op regression budget as a ratio over baseline")
	tolMem := flag.Float64("tol-mem", 2, "B/op and allocs/op budget as a ratio over baseline (plus small absolute slack)")
	tolExtra := flag.Float64("tol-extra", 2.5, "budget for extra (ReportMetric) metrics: symmetric drift for work measures, one-sided for ns/ times")
	flag.Parse()
	if *basePath == "" || *freshPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: both -base and -fresh are required")
		os.Exit(2)
	}
	base, err := load(*basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	fresh, err := load(*freshPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	if base.Warning != "" || fresh.Warning != "" {
		fmt.Printf("note: single-CPU baseline in play, tolerances widened 1.5x\n")
	}
	rows, pass := compare(base, fresh, tolerances{
		ns: *tolNs, mem: *tolMem, extra: *tolExtra,
		byteSlack: 1024, allocSlack: 4,
	})
	fmt.Printf("%-52s %-12s %14s %14s  %-4s %s\n", "benchmark", "metric", "base", "fresh", "ok", "note")
	nFail := 0
	for _, r := range rows {
		verdict := "ok"
		if !r.ok {
			verdict = "FAIL"
			nFail++
		}
		fmt.Printf("%-52s %-12s %14.4g %14.4g  %-4s %s\n",
			r.name, r.metric, r.base, r.fresh, verdict, r.note)
	}
	fmt.Printf("\nbenchdiff: %d comparisons, %d failed (%s vs %s)\n", len(rows), nFail, *freshPath, *basePath)
	if !pass {
		os.Exit(1)
	}
}
