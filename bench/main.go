// Command bench is the repository benchmark. It drives the paper's
// pipeline (build, statistical IR-drop, TDF ATPG, SCAP profiling,
// per-pattern IR-drop and delay-scaled re-simulation) only through the
// public calls the CLIs make, times each call from outside, checks the
// outputs, and prints one JSON result as its last line of output.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// it holds the per-layer metrics of a traced run, whose spans are also
// written as JSON into bench/out. README.md describes the workloads and
// every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"scap/internal/core"
	"scap/internal/soc"
)

// Run shape. Analysis calls use benchWorkers workers, the baseline host's
// CPU count. A run sets up at least benchSetups times, and keeps setting
// up while the set-ups have taken less than setupSeconds, at most
// maxSetups times; setup_s is their median. It makes at least minPasses
// timed passes however long they take.
const (
	benchWorkers = 2
	benchSetups  = 3
	setupSeconds = 1.0
	maxSetups    = 25
	minPasses    = 3
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics an untraced run reports; BENCHMARK.json
// gives their direction and bound.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"patterns_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"patterns", "count"},
	{"coverage_pct", "%"},
	{"hot_pct", "%"},
}

// perLayerUnits gives the unit of every per-layer metric perLayer derives.
var perLayerUnits = map[string]string{
	"core.Build_s": "s", "atpg.self_s": "s", "pgrid.solve_s": "s", "delayscale.resim_s": "s",
	"pgrid.solves": "count", "pgrid.factor_builds": "count",
	"atpg.waves_per_pattern": "count", "sim.events_per_launch": "count", "power.toggles_per_launch": "count",
	"faultsim.early_exit_share": "ratio", "sim.settles_skipped_share": "ratio", "parallel.utilization": "ratio",
	"sim.ns_per_event": "ns", "pgrid.us_per_solve": "us",
	"go.alloc_mb": "MB", "go.gc_cycles": "count", "go.gc_pause_ms": "ms",
	"trace.overhead_pct": "%", "trace.span_coverage_pct": "%",
	"host.probe_ms": "ms", "host.drift_pct": "%",
}

func init() {
	for _, n := range callNames {
		perLayerUnits[n+"_s"] = "s"
	}
	for _, n := range counterMetrics {
		perLayerUnits[n] = "count"
	}
}

// runOpts shapes one run.
type runOpts struct {
	seed         int64
	seconds      float64
	trace        bool
	workers      int
	setups       int
	setupSeconds float64
	minPasses    int
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is a finished run: the result plus what the human-readable
// lines and the trace file show.
type report struct {
	result
	checks   []check
	digest   string
	probeMs  [2]float64
	perLayer map[string]float64
	spans    []span
}

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Int64("seed", 1, "workload seed: drives placement, clock jitter, ATPG fill and the Monte-Carlo draws")
	seconds := flag.Float64("seconds", 10, "length of the timed region in seconds")
	trace := flag.Int("trace", 0, "1 runs traced and reports the per-layer metrics")
	flag.Parse()

	w, ok := workloadByName(*name)
	switch {
	case !ok:
		fail(2, fmt.Errorf("unknown workload %q (want %s)", *name, workloadNames()))
	case *trace != 0 && *trace != 1:
		fail(2, fmt.Errorf("-trace must be 0 or 1"))
	case !(*seconds > 0):
		fail(2, fmt.Errorf("-seconds must be positive"))
	}
	rep, err := run(w, runOpts{
		seed: *seed, seconds: *seconds, trace: *trace == 1,
		workers: benchWorkers, setups: benchSetups, setupSeconds: setupSeconds, minPasses: minPasses,
	})
	if err != nil {
		fail(1, err)
	}

	failed := 0
	for _, c := range rep.checks {
		mark := "ok  "
		if !c.ok {
			mark = "FAIL"
			failed++
		}
		fmt.Printf("check %s %s: %s\n", mark, c.name, c.detail)
	}
	fmt.Printf("workload %s seed %d: %d passes, %d of %d checks failed\n", w.name, *seed, rep.Attempted, failed, len(rep.checks))
	fmt.Printf("output_digest %s\n", rep.digest)
	drift := driftPct(rep.probeMs)
	fmt.Printf("host probe %.2f ms before, %.2f ms after (%.1f%% drift)\n", rep.probeMs[0], rep.probeMs[1], drift)
	if math.Abs(drift) > 10 {
		fmt.Fprintf(os.Stderr, "bench: host speed drifted %.1f%% during the run; its times are suspect\n", drift)
	}
	if *trace == 1 {
		path, err := writeTrace(filepath.Join("bench", "out"), &traceFile{
			Workload: w.name, Seed: *seed, Digest: rep.digest, Metrics: rep.perLayer, Spans: rep.spans,
		})
		if err != nil {
			fail(1, err)
		}
		fmt.Printf("wrote %s\n", path)
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		fail(1, err)
	}
	fmt.Println(string(line))
}

// run sets up the workload several times, runs timed passes until the
// timed region has lasted opts.seconds, checks the last pass, and derives
// the metrics. A traced run alternates untraced and traced passes, so
// the tracing overhead is measured on the same host phase.
func run(w workload, o runOpts) (*report, error) {
	rep := &report{}
	rep.probeMs[0] = hostProbe()
	rec := newRecorder()
	cfg := w.config(o.seed, o.workers)

	var fx *fixture
	var setups []*unit
	total := 0.0
	for i := 0; i < o.setups || (total < o.setupSeconds && i < maxSetups); i++ {
		fx = nil
		runtime.GC()
		rec.begin("setup", i, o.trace)
		f, err := w.setup(cfg, rec)
		u := rec.end()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, u)
		total += u.wall
		fx = f
	}

	var traced, untraced []*unit
	var last *passOut
	start := time.Now()
	for i := 0; i < o.minPasses || time.Since(start).Seconds() < o.seconds; i++ {
		on := o.trace && i%2 == 1
		// Every pass starts from a collected heap, as a fresh CLI run
		// would, so one pass's garbage does not land in the next's time.
		runtime.GC()
		rec.begin("pass", i, on)
		out, err := w.pass(fx, rec)
		u := rec.end()
		rep.Attempted++
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", i, err)
		}
		if d := digest(out); rep.digest == "" {
			rep.digest = d
		} else if d != rep.digest {
			rep.Failed++ // outputs must not change from pass to pass
		}
		if on {
			traced = append(traced, u)
		} else {
			untraced = append(untraced, u)
		}
		last = out
	}
	// Peak memory is the program's: read it before the checks allocate.
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}
	rep.checks = runChecks(fx, last)
	rep.probeMs[1] = hostProbe()

	rep.Correct = rep.Failed == 0
	for _, c := range rep.checks {
		rep.Correct = rep.Correct && c.ok
	}
	npat := 0
	for _, fr := range last.sets {
		npat += len(fr.Patterns)
	}
	rep.Metrics = map[string]metric{}
	if o.trace {
		rep.perLayer = perLayer(setups, traced, untraced, npat, rep.probeMs[0], math.Abs(driftPct(rep.probeMs)))
		for n, v := range rep.perLayer {
			rep.Metrics[n] = metric{v, perLayerUnits[n]}
		}
		rep.spans = rec.spans
		return rep, nil
	}
	wall := medianOf(untraced, func(u *unit) float64 { return u.wall })
	cov, above := 100.0, 0
	for i, fr := range last.sets {
		cov = math.Min(cov, 100*fr.Counts.TestCoverage())
		above += core.AboveThreshold(last.profs[i], soc.B5, last.stat.ThresholdMW[soc.B5])
	}
	vals := map[string]float64{
		"setup_s":        medianOf(setups, func(u *unit) float64 { return u.wall }),
		"wall_s":         wall,
		"patterns_per_s": float64(npat) / wall,
		"peak_rss_mb":    float64(ru.Maxrss) / 1024, // Linux reports KiB
		"patterns":       float64(npat),
		"coverage_pct":   cov,
		"hot_pct":        100 * float64(above) / float64(npat),
	}
	for _, m := range endToEnd {
		rep.Metrics[m.name] = metric{vals[m.name], m.unit}
	}
	return rep, nil
}

// probeSink keeps the probe kernel's result live.
var probeSink uint64

// hostProbe times a fixed compute kernel, best of five, in ms. The
// kernel never changes with the code under test, so a change in its time
// between two points of a run is the host, not the program.
func hostProbe() float64 {
	best := math.Inf(1)
	table := make([]uint64, 1<<19) // 4 MiB: past the L2, like the simulator's net arrays
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 1<<22; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			j := x & (1<<19 - 1)
			table[j] += x
			probeSink += table[(j*31)&(1<<19-1)]
		}
		best = math.Min(best, ms(time.Since(t0)))
	}
	return best
}

// driftPct is the after/before change of the host probe, in percent.
func driftPct(p [2]float64) float64 { return 100 * (p[1]/p[0] - 1) }

// medianOf is the median of f over the units (0 for none).
func medianOf(us []*unit, f func(*unit) float64) float64 {
	if len(us) == 0 {
		return 0
	}
	v := make([]float64, len(us))
	for i, u := range us {
		v[i] = f(u)
	}
	sort.Float64s(v)
	if n := len(v); n%2 == 1 {
		return v[n/2]
	}
	return (v[len(v)/2-1] + v[len(v)/2]) / 2
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func fail(code int, err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(code)
}
