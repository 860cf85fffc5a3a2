// Package obs is the repo-wide observability layer: atomic counters,
// bounded histograms and hierarchical wall-time spans that are compiled
// into every hot subsystem (pgrid solves, the timing simulator, the
// worker pool, the SCAP meter, ATPG) but cost almost nothing while
// disabled — every instrumentation entry point is gated on one atomic
// load, and hot loops accumulate locally and flush once per unit of
// work (per solve, per launch, per pool run), never per iteration.
//
// The layer is stdlib-only and surfaces three ways:
//
//   - a versioned JSON run report (report.go) written by the CLIs'
//     -report flag: stage tree, counters, histograms, provenance;
//   - a Chrome trace-event timeline (trace.go) behind the CLIs' -trace
//     flag;
//   - a human-readable stage summary table rendered through
//     internal/textplot at CLI exit.
//
// Naming convention: metrics are "<package>.<subsystem>.<metric>" with
// snake_case metric names and the unit suffixed when not a plain count
// (_ns for nanoseconds, _v for volts). See DESIGN.md §10.
package obs

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// enabled gates every instrumentation entry point. Off by default so
// library users and benchmarks pay only the atomic load; the CLIs
// enable it when -report or -trace is given.
var enabled atomic.Bool

// Enable turns instrumentation on. Counters, histograms and spans
// created before Enable work normally afterwards — creation is always
// allowed, only recording is gated.
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
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	topks    map[string]*TopK
	derived  map[string]func(counters map[string]int64) (float64, bool)
}{
	counters: map[string]*Counter{},
	gauges:   map[string]*Gauge{},
	hists:    map[string]*Histogram{},
	topks:    map[string]*TopK{},
	derived:  map[string]func(map[string]int64) (float64, bool){},
}

// Reset zeroes every registered metric in place — counters, gauges,
// histograms, hotspot tables — and clears the run
// info, span tree, snapshot series and trace buffer, while keeping all
// registrations (the instrumented packages' package-level vars stay
// valid). It exists for multi-run processes (property tests comparing
// worker counts, the future scapd serving loop) that need a fresh
// attribution slate per run.
func Reset() {
	reg.mu.Lock()
	for _, c := range reg.counters {
		c.v.Store(0)
	}
	for _, g := range reg.gauges {
		g.v.Store(0)
	}
	for _, h := range reg.hists {
		h.count.Store(0)
		h.sumBits.Store(0)
		for i := range h.buckets {
			h.buckets[i].Store(0)
		}
	}
	topks := make([]*TopK, 0, len(reg.topks))
	for _, t := range reg.topks {
		topks = append(topks, t)
	}
	reg.mu.Unlock()
	for _, t := range topks {
		t.reset()
	}

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

	for i := range tracer.shards {
		s := &tracer.shards[i]
		s.mu.Lock()
		s.next = 0
		s.mu.Unlock()
	}
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

// Name returns the registered name.
func (c *Counter) Name() string { return c.name }

// Gauge tracks a high-water mark: Max keeps the largest value observed.
type Gauge struct {
	name string
	v    atomic.Int64
}

// NewGauge registers (or returns the existing) gauge under name.
func NewGauge(name string) *Gauge {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if g, ok := reg.gauges[name]; ok {
		return g
	}
	g := &Gauge{name: name}
	reg.gauges[name] = g
	return g
}

// Max raises the gauge to n if n exceeds the current value.
func (g *Gauge) Max(n int64) {
	if !enabled.Load() {
		return
	}
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the high-water mark.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets bounds every histogram: 64 power-of-two buckets covering
// [2^-32, 2^31); values outside clamp to the end buckets, so memory is
// fixed no matter what is observed.
const histBuckets = 64

// Histogram is a bounded exponential (base-2) histogram over
// non-negative float64 samples: bucket i counts values in
// [2^(i-32), 2^(i-31)). It additionally tracks the exact count and sum
// so means survive the bucketing.
type Histogram struct {
	name    string
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the running sum
	buckets [histBuckets]atomic.Int64
}

// NewHistogram registers (or returns the existing) histogram under name.
func NewHistogram(name string) *Histogram {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if h, ok := reg.hists[name]; ok {
		return h
	}
	h := &Histogram{name: name}
	reg.hists[name] = h
	return h
}

// bucketOf maps a sample to its bucket index. Non-positive and NaN
// samples land in bucket 0.
func bucketOf(v float64) int {
	if v <= 0 || math.IsNaN(v) {
		return 0
	}
	_, exp := math.Frexp(v) // v = frac · 2^exp with frac ∈ [0.5, 1)
	i := exp + 31           // 2^-32 ≤ v < 2^-31 → exp = -31 → bucket 0
	if i < 0 {
		i = 0
	}
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// bucketLo returns bucket i's inclusive lower bound.
func bucketLo(i int) float64 { return math.Ldexp(1, i-32) }

// Observe records one sample when instrumentation is enabled.
func (h *Histogram) Observe(v float64) {
	if !enabled.Load() {
		return
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			break
		}
	}
	h.buckets[bucketOf(v)].Add(1)
}

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the exact sum of all samples.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// RegisterDerived registers a metric computed from the counter snapshot
// at report time (e.g. pool utilization = busy/capacity, factor cache
// hits = calls - builds). fn returns ok=false to omit the metric (for
// instance when its inputs are still zero).
func RegisterDerived(name string, fn func(counters map[string]int64) (float64, bool)) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	reg.derived[name] = fn
}
