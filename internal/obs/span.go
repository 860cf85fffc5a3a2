package obs

import (
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// timeNow is swapped by the report golden test for deterministic spans.
var timeNow = time.Now

// Span is one timed stage of a run. Spans form a tree: StartSpan nests
// the new span under the currently open one, so sequential pipeline
// stages produce the stage hierarchy the run report serializes.
//
// The intended discipline is well-nested start/end from one goroutine
// at a time (the CLI main goroutine driving the pipeline); worker time
// goes to the pool's busy counters and the -trace task lanes instead of
// spans. All methods are
// nil-safe so call sites stay one line even while instrumentation is
// off: defer obs.StartSpan("stage").End().
type Span struct {
	name      string
	goroutine int64
	start     time.Time
	end       time.Time
	parent    *Span
	children  []*Span
}

// trace is the process-wide span tree.
var trace struct {
	mu    sync.Mutex
	epoch time.Time
	roots []*Span
	cur   *Span
}

// StartSpan opens a span named name as a child of the currently open
// span (or as a root) and returns it. Returns nil — a no-op span —
// while instrumentation is disabled.
func StartSpan(name string) *Span {
	if !enabled.Load() {
		return nil
	}
	now := timeNow()
	s := &Span{name: name, start: now, goroutine: goid()}
	trace.mu.Lock()
	if trace.epoch.IsZero() {
		trace.epoch = now
	}
	if trace.cur != nil {
		s.parent = trace.cur
		trace.cur.children = append(trace.cur.children, s)
	} else {
		trace.roots = append(trace.roots, s)
	}
	trace.cur = s
	trace.mu.Unlock()
	return s
}

// End closes the span and pops the open-span stack back to its parent.
// Ending a span with still-open children closes the whole subtree's
// position (the children keep their recorded times); ending twice is
// harmless.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := timeNow()
	trace.mu.Lock()
	if s.end.IsZero() {
		s.end = now
	}
	for c := trace.cur; c != nil; c = c.parent {
		if c == s {
			trace.cur = s.parent
			break
		}
	}
	trace.mu.Unlock()
}

// CurrentStage returns the name of the innermost open span, or "" when
// no stage is open (or instrumentation is off). The worker pool labels
// its per-task trace events with it, once per For call.
func CurrentStage() string {
	if !enabled.Load() {
		return ""
	}
	trace.mu.Lock()
	defer trace.mu.Unlock()
	if trace.cur == nil {
		return ""
	}
	return trace.cur.name
}

// WallMs returns the span's wall time in milliseconds (0 while open).
func (s *Span) WallMs() float64 {
	if s == nil || s.end.IsZero() {
		return 0
	}
	return float64(s.end.Sub(s.start)) / float64(time.Millisecond)
}

// goid returns the current goroutine's id by parsing the first line of
// its stack header ("goroutine N [running]:"). Only called on span
// start, never on a hot path.
func goid() int64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	s := strings.TrimPrefix(string(buf[:n]), "goroutine ")
	if i := strings.IndexByte(s, ' '); i > 0 {
		if id, err := strconv.ParseInt(s[:i], 10, 64); err == nil {
			return id
		}
	}
	return 0
}
