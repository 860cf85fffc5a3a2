package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The trace-event log is the timeline companion to the aggregate
// metrics: a bounded, sharded ring buffer of complete (begin plus
// duration) events that the CLIs' -trace flag exports as Chrome
// trace-event JSON, loadable in Perfetto or chrome://tracing. Subsystem
// bursts land on the goroutine that ran them; the worker pool emits one
// (sampled) complete event per task on the worker's own lane. The
// export adds one event per finished stage span, read from the span
// tree, so a run renders as nested pipeline stages above per-worker
// task lanes with the solver/sim bursts visible inside them.
//
// Recording follows the same discipline as the counters: every entry
// point is gated on one atomic load, so the log costs nothing while
// tracing is off; while it is on, an event is one uncontended
// shard-mutex lock plus a slot write. The buffer is fixed-size — when
// it wraps, the oldest events in the shard are overwritten and counted
// as dropped (surfaced in the exported file's otherData). Stage events
// never pass through the ring, so a long run keeps its skeleton.

// Trace lanes map to Chrome trace "pid"s so stage structure and worker
// activity render as two separate process groups.
const (
	// LaneStages holds pipeline stage spans and subsystem bursts,
	// one "tid" per goroutine.
	LaneStages = 1
	// LaneWorkers holds the worker pool's per-task events, one "tid"
	// per worker id.
	LaneWorkers = 2
)

// traceShards spreads recording across independently locked rings so
// concurrent workers rarely contend on one mutex.
const traceShards = 16

// DefaultTraceEvents is the default total event capacity behind the
// CLIs' -trace flag, at ~64 B/event a few MB. A run that records more
// bursts and tasks than this keeps the newest per shard.
const DefaultTraceEvents = 1 << 16

type traceEvent struct {
	tsNs  int64 // start, relative to the trace epoch
	durNs int64
	tid   int64 // goroutine id (LaneStages) or worker id (LaneWorkers)
	lane  uint8
	cat   string
	name  string
}

type traceShard struct {
	mu   sync.Mutex
	buf  []traceEvent
	next uint64 // events ever claimed; ring position is next % len(buf)
}

// tracing gates the trace entry points exactly like `enabled` gates the
// metric entry points.
var tracing atomic.Bool

var tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	sample int64
	shards [traceShards]traceShard
}

// EnableTrace switches trace-event recording on with the given total
// event capacity (<= 0 selects DefaultTraceEvents) and task sampling
// stride (record every sample-th worker task event; <= 1 records all).
// It also enables the metric layer — a timeline without its counters
// would be half blind. Re-enabling resets the buffer and epoch.
func EnableTrace(capacity, sample int) {
	if capacity <= 0 {
		capacity = DefaultTraceEvents
	}
	per := capacity / traceShards
	if per < 64 {
		per = 64
	}
	if sample < 1 {
		sample = 1
	}
	tracer.mu.Lock()
	tracer.epoch = timeNow()
	tracer.sample = int64(sample)
	for i := range tracer.shards {
		s := &tracer.shards[i]
		s.mu.Lock()
		s.buf = make([]traceEvent, per)
		s.next = 0
		s.mu.Unlock()
	}
	tracer.mu.Unlock()
	Enable()
	tracing.Store(true)
}

// DisableTrace turns trace recording back off (tests).
func DisableTrace() { tracing.Store(false) }

// TraceOn reports whether trace events are being recorded.
func TraceOn() bool { return tracing.Load() }

// TraceTaskSample returns the configured task sampling stride (1 =
// every task).
func TraceTaskSample() int {
	tracer.mu.Lock()
	defer tracer.mu.Unlock()
	if tracer.sample < 1 {
		return 1
	}
	return int(tracer.sample)
}

// traceAdd claims the next ring slot of the event's shard and writes it.
func traceAdd(ev traceEvent) {
	shard := &tracer.shards[uint64(ev.tid)%traceShards]
	shard.mu.Lock()
	if len(shard.buf) > 0 {
		shard.buf[shard.next%uint64(len(shard.buf))] = ev
		shard.next++
	}
	shard.mu.Unlock()
}

// traceEpoch returns the enable-time epoch trace timestamps are
// relative to.
func traceEpoch() time.Time {
	tracer.mu.Lock()
	defer tracer.mu.Unlock()
	return tracer.epoch
}

// TraceTimer is an in-flight complete event: TraceStart captures the
// start time (or nothing, while tracing is off) and End records it.
// The zero value's End is a no-op, so call sites stay one line:
//
//	defer obs.TraceStart().End("sim", "launch")
type TraceTimer struct {
	start time.Time
	on    bool
}

// TraceStart begins a complete event when tracing is enabled.
func TraceStart() TraceTimer {
	if !tracing.Load() {
		return TraceTimer{}
	}
	return TraceTimer{start: timeNow(), on: true}
}

// End records the complete event on the caller's goroutine lane.
func (t TraceTimer) End(cat, name string) {
	if !t.on || !tracing.Load() {
		return
	}
	end := timeNow()
	traceAdd(traceEvent{
		tsNs:  t.start.Sub(traceEpoch()).Nanoseconds(),
		durNs: end.Sub(t.start).Nanoseconds(),
		tid:   goid(),
		lane:  LaneStages,
		cat:   cat,
		name:  name,
	})
}

// TraceTask records one worker-pool task as a complete event on the
// worker's lane. The caller owns sampling (see TraceTaskSample) so the
// stride applies per worker deterministically.
func TraceTask(worker int, name string, start time.Time, dur time.Duration) {
	if !tracing.Load() {
		return
	}
	traceAdd(traceEvent{
		tsNs:  start.Sub(traceEpoch()).Nanoseconds(),
		durNs: dur.Nanoseconds(),
		tid:   int64(worker),
		lane:  LaneWorkers,
		cat:   "task",
		name:  name,
	})
}

// traceSnapshot returns one event per finished stage span plus a copy
// of the ring's live events, oldest first, and the total the ring
// dropped by wrap-around.
func traceSnapshot() (evs []traceEvent, dropped int64) {
	epoch := traceEpoch()
	var walk func(s *Span)
	walk = func(s *Span) {
		if !s.end.IsZero() {
			evs = append(evs, traceEvent{
				tsNs:  s.start.Sub(epoch).Nanoseconds(),
				durNs: s.end.Sub(s.start).Nanoseconds(),
				tid:   s.goroutine,
				lane:  LaneStages,
				cat:   "stage",
				name:  s.name,
			})
		}
		for _, c := range s.children {
			walk(c)
		}
	}
	trace.mu.Lock()
	for _, s := range trace.roots {
		walk(s)
	}
	trace.mu.Unlock()
	for i := range tracer.shards {
		s := &tracer.shards[i]
		s.mu.Lock()
		n := uint64(len(s.buf))
		if n > 0 {
			kept := s.next
			if kept > n {
				dropped += int64(kept - n)
				kept = n
			}
			// Oldest first: the ring's logical order starts at next-kept.
			for j := uint64(0); j < kept; j++ {
				evs = append(evs, s.buf[(s.next-kept+j)%n])
			}
		}
		s.mu.Unlock()
	}
	sort.SliceStable(evs, func(a, b int) bool { return evs[a].tsNs < evs[b].tsNs })
	return evs, dropped
}

// chromeEvent is one serialized Chrome trace event. Timestamps and
// durations are microseconds per the trace-event format spec.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// BuildChromeTrace converts the recorded events into the Chrome
// trace-event JSON document (Perfetto- and chrome://tracing-loadable).
func BuildChromeTrace() *chromeTrace {
	evs, dropped := traceSnapshot()
	doc := &chromeTrace{
		TraceEvents:     make([]chromeEvent, 0, len(evs)+8),
		DisplayTimeUnit: "ms",
	}
	// Name the two lanes so the viewer labels the process groups.
	meta := func(pid int, tid int64, key, val string) {
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: key, Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"name": val},
		})
	}
	meta(LaneStages, 0, "process_name", "pipeline stages")
	meta(LaneWorkers, 0, "process_name", "worker pool")
	workers := map[int64]bool{}
	for _, ev := range evs {
		ce := chromeEvent{
			Name: ev.name,
			Cat:  ev.cat,
			Ph:   "X",
			Ts:   float64(ev.tsNs) / 1e3,
			Dur:  float64(ev.durNs) / 1e3,
			Pid:  int(ev.lane),
			Tid:  ev.tid,
		}
		if ev.lane == LaneWorkers && !workers[ev.tid] {
			workers[ev.tid] = true
			meta(LaneWorkers, ev.tid, "thread_name", fmt.Sprintf("worker %d", ev.tid))
		}
		doc.TraceEvents = append(doc.TraceEvents, ce)
	}
	doc.OtherData = map[string]any{
		"events":  len(evs),
		"dropped": dropped,
		"sample":  TraceTaskSample(),
	}
	return doc
}

// WriteTrace exports the recorded timeline as Chrome trace-event JSON
// to path, checking every write error including Close.
func WriteTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: trace: %w", err)
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(BuildChromeTrace()); err != nil {
		f.Close()
		return fmt.Errorf("obs: trace encode: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("obs: trace close: %w", err)
	}
	return nil
}
