package obs

import (
	"sync"
	"time"
)

// timeNow is swapped by the report golden test for deterministic spans.
var timeNow = time.Now

// Span is one timed stage of a run. Spans form a tree: StartSpan nests
// the new span under the currently open one, so sequential pipeline
// stages produce the stage hierarchy the run report serializes.
//
// The tree is one process-wide stack of open spans, so only one
// goroutine can keep it well-nested: every span opens and ends on the
// goroutine that drives the pipeline (a CLI's main goroutine), and
// worker time goes to the pool's busy counters instead of spans. All
// methods are nil-safe so call sites stay one line even while
// instrumentation is off: defer obs.StartSpan("stage").End().
type Span struct {
	name     string
	start    time.Time
	end      time.Time
	parent   *Span
	children []*Span
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
	s := &Span{name: name, start: now}
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
