package obs

import (
	"sync"
	"testing"
	"time"
)

// resetForTest clears the process-wide registry and span tree so each
// test starts from a blank namespace. Tests run in this package, so the
// internals are reachable directly.
func resetForTest(t *testing.T) {
	t.Helper()
	reg.mu.Lock()
	reg.counters = map[string]*Counter{}
	reg.derived = map[string]func(map[string]int64) (float64, bool){}
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
	Disable()
	t.Cleanup(func() {
		Disable()
		timeNow = time.Now
	})
}

func TestDisabledRecordingIsNoop(t *testing.T) {
	resetForTest(t)
	c := NewCounter("t.disabled.counter")
	c.Add(5)
	if c.Value() != 0 {
		t.Fatalf("disabled instrumentation recorded: c=%d", c.Value())
	}
	if s := StartSpan("t.disabled.span"); s != nil {
		t.Fatalf("StartSpan returned non-nil while disabled")
	}
	var s *Span
	s.End() // nil-safe
	if r := BuildReport("test", nil); len(r.Stages) != 0 {
		t.Fatalf("disabled instrumentation recorded spans: %+v", r.Stages)
	}
}

// TestConcurrentRecording hammers a counter from many goroutines; run
// under -race this is the data-race proof, and the total proves no
// increments are lost.
func TestConcurrentRecording(t *testing.T) {
	resetForTest(t)
	Enable()
	c := NewCounter("t.conc.counter")

	const goroutines, perG = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()

	if got := c.Value(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
}

func TestRegistryDedup(t *testing.T) {
	resetForTest(t)
	if NewCounter("t.dup") != NewCounter("t.dup") {
		t.Error("NewCounter returned distinct counters for one name")
	}
}

// fakeClock returns a timeNow replacement that advances 10 ms per call,
// starting at a fixed epoch.
func fakeClock() func() time.Time {
	t0 := time.Unix(1000, 0)
	n := 0
	return func() time.Time {
		t := t0.Add(time.Duration(n) * 10 * time.Millisecond)
		n++
		return t
	}
}

// TestSpanNesting pins the tree invariants: children nest under the
// open span, End pops back to the parent, and sibling order follows
// call order.
func TestSpanNesting(t *testing.T) {
	resetForTest(t)
	Enable()
	timeNow = fakeClock()

	flow := StartSpan("flow")  // t=0
	atpg := StartSpan("atpg")  // t=10
	atpg.End()                 // t=20
	prof := StartSpan("prof")  // t=30
	inner := StartSpan("fill") // t=40
	inner.End()                // t=50
	prof.End()                 // t=60
	flow.End()                 // t=70

	func() {
		trace.mu.Lock()
		defer trace.mu.Unlock()
		if len(trace.roots) != 1 || trace.roots[0] != flow {
			t.Fatalf("roots = %v, want [flow]", trace.roots)
		}
		if trace.cur != nil {
			t.Fatalf("open-span stack not empty after all Ends")
		}
		if len(flow.children) != 2 || flow.children[0] != atpg || flow.children[1] != prof {
			t.Fatalf("flow children out of order: %v", flow.children)
		}
		if len(prof.children) != 1 || prof.children[0] != inner {
			t.Fatalf("prof children = %v, want [fill]", prof.children)
		}
		if atpg.parent != flow || prof.parent != flow || inner.parent != prof {
			t.Fatal("parent links wrong")
		}
	}()

	sr := BuildReport("test", nil).Stages[0]
	if got := sr.WallMs; got != 70 {
		t.Errorf("flow wall = %v ms, want 70", got)
	}
	if got := sr.Children[0].WallMs; got != 10 {
		t.Errorf("atpg wall = %v ms, want 10", got)
	}
	if got := sr.Children[1].Children[0].WallMs; got != 10 {
		t.Errorf("fill wall = %v ms, want 10", got)
	}
}

// TestSpanEndWithOpenChildren: ending a parent with a still-open child
// pops the stack past the child, and a double End is harmless.
func TestSpanEndWithOpenChildren(t *testing.T) {
	resetForTest(t)
	Enable()
	timeNow = fakeClock()

	outer := StartSpan("outer")
	StartSpan("leaked") // never ended by its stage
	outer.End()
	if trace.cur != nil {
		t.Fatalf("ending outer did not pop past its open child")
	}
	wall := BuildReport("test", nil).Stages[0].WallMs
	outer.End() // double End must not move the recorded end time
	if again := BuildReport("test", nil).Stages[0].WallMs; again != wall {
		t.Errorf("double End changed wall time: %v -> %v", wall, again)
	}
	next := StartSpan("next")
	trace.mu.Lock()
	isRoot := len(trace.roots) == 2 && trace.roots[1] == next
	trace.mu.Unlock()
	if !isRoot {
		t.Fatal("span after a finished tree did not start a new root")
	}
	next.End()
}

func TestDerivedMetrics(t *testing.T) {
	resetForTest(t)
	Enable()
	calls := NewCounter("t.derived.calls")
	builds := NewCounter("t.derived.builds")
	RegisterDerived("t.derived.hits", func(c map[string]int64) (float64, bool) {
		if c["t.derived.calls"] == 0 {
			return 0, false
		}
		return float64(c["t.derived.calls"] - c["t.derived.builds"]), true
	})

	r := BuildReport("test", nil)
	if _, ok := r.Derived["t.derived.hits"]; ok {
		t.Error("derived metric emitted while its inputs are zero")
	}
	calls.Add(10)
	builds.Add(1)
	r = BuildReport("test", nil)
	if got := r.Derived["t.derived.hits"]; got != 9 {
		t.Errorf("derived hits = %v, want 9", got)
	}
}
