package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"scap/internal/obs"
)

// span is one timed call, or one whole set-up or pass, as the trace file
// stores it. Spans of one unit share the unit's kind and index, and each
// call's parent is its unit's span.
type span struct {
	Name    string  `json:"name"`
	Parent  int     `json:"parent"`
	Unit    string  `json:"unit"`
	Index   int     `json:"index"`
	StartMs float64 `json:"start_ms"`
	DurMs   float64 `json:"dur_ms"`
}

// unit is one set-up or one timed pass.
type unit struct {
	kind   string
	index  int
	traced bool
	span   int
	start  time.Time
	wall   float64 // seconds
	// calls sums the seconds spent in each named call.
	calls map[string]float64

	// Traced units only: sim events dispatched inside each named call,
	// the non-zero obs counters at unit end, the program's own
	// "resimulation" stage time, and the Go runtime's allocation and GC
	// work over the unit.
	events   map[string]int64
	counters map[string]int64
	resimS   float64
	allocMB  float64
	gcCycles float64
	gcPause  float64 // ms
	mem0     runtime.MemStats
}

// recorder times every pipeline call from outside the program. Untraced,
// it keeps only per-unit call durations: two clock reads per call, which
// are milliseconds long. Traced, it also turns the obs registry and its
// event timeline on for the unit, keeps each call as a span, and reads
// the program's work counters and stage events when the unit ends.
type recorder struct {
	epoch time.Time
	spans []span
	cur   *unit
}

// Timeline settings for traced units: room for every stage event of a
// pass, and a task-sampling stride that keeps worker-pool task events out
// of it.
const (
	traceEvents     = 1 << 16
	traceTaskSample = 1 << 20
)

// cEvents is read around each traced call for host time per event.
var cEvents = obs.NewCounter("sim.events_dispatched")

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a unit.
func (r *recorder) begin(kind string, index int, traced bool) {
	u := &unit{kind: kind, index: index, traced: traced, calls: map[string]float64{}}
	if traced {
		u.events = map[string]int64{}
		obs.Reset()
		obs.EnableTrace(traceEvents, traceTaskSample)
		runtime.ReadMemStats(&u.mem0)
		u.span = len(r.spans)
		r.spans = append(r.spans, span{Name: kind, Parent: -1, Unit: kind, Index: index})
	}
	u.start = time.Now()
	r.cur = u
}

// end closes the current unit and returns it.
func (r *recorder) end() *unit {
	u := r.cur
	wall := time.Since(u.start)
	u.wall = wall.Seconds()
	if u.traced {
		obs.TakeSnapshot()
		snaps := obs.Snapshots()
		u.counters = snaps[len(snaps)-1].Counters
		for _, ev := range obs.BuildChromeTrace().TraceEvents {
			if ev.Cat == "stage" && ev.Name == "resimulation" {
				u.resimS += ev.Dur / 1e6 // µs
			}
		}
		obs.DisableTrace()
		obs.Disable()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		u.allocMB = float64(m.TotalAlloc-u.mem0.TotalAlloc) / (1 << 20)
		u.gcCycles = float64(m.NumGC - u.mem0.NumGC)
		u.gcPause = float64(m.PauseTotalNs-u.mem0.PauseTotalNs) / 1e6
		r.spans[u.span].StartMs = ms(u.start.Sub(r.epoch))
		r.spans[u.span].DurMs = ms(wall)
	}
	r.cur = nil
	return u
}

// call runs one pipeline call inside the current unit.
func (r *recorder) call(name string, fn func() error) error {
	u := r.cur
	var ev0 int64
	if u.traced {
		ev0 = cEvents.Value()
	}
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	u.calls[name] += d.Seconds()
	if u.traced {
		u.events[name] += cEvents.Value() - ev0
		r.spans = append(r.spans, span{
			Name: name, Parent: u.span, Unit: u.kind, Index: u.index,
			StartMs: ms(t0.Sub(r.epoch)), DurMs: ms(d),
		})
	}
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// caller chains recorder calls, skipping the rest after the first error.
type caller struct {
	r   *recorder
	err error
}

func (c *caller) do(name string, fn func() error) {
	if c.err == nil {
		c.err = c.r.call(name, fn)
	}
}

// traceFile is what a traced run writes at exit.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Digest   string             `json:"output_digest"`
	Metrics  map[string]float64 `json:"metrics"`
	Spans    []span             `json:"spans"`
}

// writeTrace writes the spans and per-layer metrics as JSON into dir.
func writeTrace(dir string, tf *traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", tf.Workload, tf.Seed))
	b, err := json.MarshalIndent(tf, "", " ")
	if err != nil {
		return "", fmt.Errorf("trace encode: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("trace write: %w", err)
	}
	return path, nil
}

// perLayer derives the per-layer metrics from the traced set-ups and
// passes. Work counters and atpg.self_s cover one set-up plus one pass;
// the per-call times cover the pass only, except core.Build_s, which is
// the set-up's. Counters the program no longer registers read 0.
func perLayer(setups, traced, untraced []*unit, patterns int, probeMs, driftPct float64) map[string]float64 {
	last := setups[len(setups)-1]
	m := map[string]float64{}
	m["core.Build_s"] = medianOf(setups, func(u *unit) float64 { return u.calls["core.Build"] })
	for _, name := range callNames {
		m[name+"_s"] = medianOf(traced, func(u *unit) float64 { return u.calls[name] })
	}
	// count sums a counter over the last set-up and the median pass.
	count := func(names ...string) float64 {
		s := 0.0
		for _, n := range names {
			s += float64(last.counters[n]) + medianOf(traced, func(u *unit) float64 { return float64(u.counters[n]) })
		}
		return s
	}
	// matching lists the counters seen with the given suffix under pgrid,
	// so the sums cover whichever solver tiers the program has.
	matching := func(suffix string) []string {
		seen := map[string]bool{}
		var out []string
		for _, u := range append([]*unit{last}, traced...) {
			for n := range u.counters {
				if strings.HasPrefix(n, "pgrid.") && strings.HasSuffix(n, suffix) && !seen[n] {
					seen[n] = true
					out = append(out, n)
				}
			}
		}
		return out
	}

	for _, n := range counterMetrics {
		m[n] = count(n)
	}
	m["atpg.waves_per_pattern"] = ratio(m["atpg.implication_waves"], m["atpg.patterns"])
	m["atpg.self_s"] = last.calls["core.ConventionalFlow"] + last.calls["core.NewProcedureFlow"] +
		m["core.ConventionalFlow_s"] + m["core.NewProcedureFlow_s"]
	m["faultsim.early_exit_share"] = ratio(count("faultsim.early_exits"),
		count("faultsim.detects")-count("faultsim.no_activation"))
	m["sim.settles_skipped_share"] = ratio(count("sim.settles_skipped"),
		count("sim.settles_full", "sim.settles_incremental", "sim.settles_skipped"))
	m["sim.events_per_launch"] = ratio(m["sim.events_dispatched"], m["sim.launches"])
	m["sim.ns_per_event"] = medianOf(traced, func(u *unit) float64 {
		return ratio(u.calls["core.ProfilePatterns"]*1e9, float64(u.events["core.ProfilePatterns"]))
	})
	m["power.toggles_per_launch"] = ratio(m["power.toggles_metered"], m["sim.launches"])
	m["pgrid.solves"] = count(matching(".solves")...)
	m["pgrid.factor_builds"] = count(matching("factor.builds")...)
	// Both calls launch every pattern once; DynamicIRDropAll adds the two
	// rail solves per pattern, so the difference is grid time.
	m["pgrid.solve_s"] = medianOf(traced, func(u *unit) float64 {
		if u.calls["core.DynamicIRDropAll"] == 0 {
			return 0
		}
		return u.calls["core.DynamicIRDropAll"] - u.calls["core.ProfilePatterns"]
	})
	m["pgrid.us_per_solve"] = m["pgrid.solve_s"] / float64(2*patterns) * 1e6
	m["delayscale.resim_s"] = medianOf(traced, func(u *unit) float64 { return u.resimS })
	m["parallel.utilization"] = medianOf(traced, func(u *unit) float64 {
		return ratio(float64(u.counters["parallel.busy_ns"]), float64(u.counters["parallel.capacity_ns"]))
	})
	m["go.alloc_mb"] = medianOf(traced, func(u *unit) float64 { return u.allocMB })
	m["go.gc_cycles"] = medianOf(traced, func(u *unit) float64 { return u.gcCycles })
	m["go.gc_pause_ms"] = medianOf(traced, func(u *unit) float64 { return u.gcPause })
	wallT := medianOf(traced, func(u *unit) float64 { return u.wall })
	wallU := medianOf(untraced, func(u *unit) float64 { return u.wall })
	m["trace.overhead_pct"] = 100 * (ratio(wallT, wallU) - 1)
	m["trace.span_coverage_pct"] = 100 * medianOf(traced, func(u *unit) float64 {
		s := 0.0
		for _, v := range u.calls {
			s += v
		}
		return ratio(s, u.wall)
	})
	m["host.probe_ms"] = probeMs
	m["host.drift_pct"] = driftPct
	return m
}

// counterMetrics are the obs counters reported under their own names.
var counterMetrics = []string{
	"atpg.runs", "atpg.patterns", "atpg.implication_waves", "atpg.spec_waves", "atpg.backtracks",
	"faultsim.batches", "faultsim.detects", "faultsim.cone_gate_evals", "faultsim.faults_dropped",
	"sim.launches", "sim.events_dispatched", "sim.events_suppressed", "sim.settle_gates_evaluated",
	"power.toggles_metered", "pgrid.mg.vcycles", "pgrid.sor.sweeps",
}

// callNames lists the pipeline calls whose per-pass time is a per-layer
// metric (name + "_s").
var callNames = []string{
	"core.Statistical", "core.ConventionalFlow", "core.NewProcedureFlow",
	"core.ProfilePatterns", "core.DynamicIRDropAll", "core.DelayImpact",
	"core.MonteCarloIRDrop", "core.GradeDetections",
	"scan.FlushTest", "verilog.Write", "parasitic.WriteSPEF", "sdf.Write", "pattern.Write",
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
