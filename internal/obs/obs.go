// Package obs is the repo-wide observability layer: atomic counters
// and hierarchical wall-time spans that are compiled into every hot
// subsystem (pgrid solves, the timing simulator, the worker pool, the
// SCAP meter, ATPG) but cost almost nothing while disabled — every
// instrumentation entry point is gated on one atomic load, and hot
// loops accumulate locally and flush once per unit of work (per solve,
// per launch, per pool run), never per iteration.
//
// The layer is stdlib-only and surfaces three ways:
//
//   - a versioned JSON run report (report.go) written by the CLIs'
//     -report flag: stage tree, counters, derived metrics, provenance;
//   - the report's stage tree as Chrome trace-event JSON (trace.go),
//     written by the CLIs' -trace flag;
//   - a human-readable stage summary table rendered through
//     internal/textplot at CLI exit.
//
// Naming convention: metrics are "<package>.<subsystem>.<metric>" with
// snake_case metric names and the unit suffixed when not a plain count
// (_ns for nanoseconds, _v for volts). See DESIGN.md §10.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// enabled gates every instrumentation entry point. Off by default so
// library users and benchmarks pay only the atomic load; the CLIs
// enable it when -report or -trace is given.
var enabled atomic.Bool

// Enable turns instrumentation on. Counters and spans created before
// Enable work normally afterwards — creation is always allowed, only
// recording is gated.
func Enable() { enabled.Store(true) }

// Disable turns instrumentation back off (tests).
func Disable() { enabled.Store(false) }

// On reports whether instrumentation is recording.
func On() bool { return enabled.Load() }

// registry is the process-wide metric namespace. Metrics register at
// package init of the instrumented packages; lookups never happen on
// hot paths (each package holds its *Counter in a package-level var).
var reg = struct {
	mu       sync.Mutex
	counters map[string]*Counter
	derived  map[string]func(counters map[string]int64) (float64, bool)
}{
	counters: map[string]*Counter{},
	derived:  map[string]func(map[string]int64) (float64, bool){},
}

// Reset zeroes every registered counter in place and clears the run
// info, span tree and snapshot series, while keeping all registrations
// (the instrumented packages' package-level vars stay valid). It
// exists for multi-run processes (property tests comparing worker
// counts, the benchmark harness's traced passes) that need a fresh
// slate per run.
func Reset() {
	reg.mu.Lock()
	for _, c := range reg.counters {
		c.v.Store(0)
	}
	reg.mu.Unlock()

	runInfo.mu.Lock()
	runInfo.kv = map[string]any{}
	runInfo.mu.Unlock()

	trace.mu.Lock()
	trace.epoch = time.Time{}
	trace.roots = nil
	trace.cur = nil
	trace.mu.Unlock()

	series.mu.Lock()
	series.epoch = time.Time{}
	series.entries = nil
	series.mu.Unlock()
}

// Counter is a monotonically increasing atomic count.
type Counter struct {
	name string
	v    atomic.Int64
}

// NewCounter registers (or returns the existing) counter under name.
func NewCounter(name string) *Counter {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if c, ok := reg.counters[name]; ok {
		return c
	}
	c := &Counter{name: name}
	reg.counters[name] = c
	return c
}

// Add increments the counter when instrumentation is enabled.
func (c *Counter) Add(n int64) {
	if !enabled.Load() {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// RegisterDerived registers a metric computed from the counter snapshot
// at report time (e.g. pool utilization = busy/capacity). fn returns
// ok=false to omit the metric (for instance when its inputs are still
// zero).
func RegisterDerived(name string, fn func(counters map[string]int64) (float64, bool)) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	reg.derived[name] = fn
}
