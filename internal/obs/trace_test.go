package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func countPhase(doc *chromeTrace, ph string) int {
	n := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == ph {
			n++
		}
	}
	return n
}

func TestTraceDisabledIsNoop(t *testing.T) {
	resetForTest(t)
	Enable() // metrics on, tracing off
	TraceStart().End("cat", "never")
	TraceTask(0, "never", time.Now(), time.Millisecond)
	if evs, dropped := traceSnapshot(); len(evs) != 0 || dropped != 0 {
		t.Fatalf("disabled tracing recorded %d events (%d dropped)", len(evs), dropped)
	}
	if TraceOn() {
		t.Fatal("TraceOn while disabled")
	}
}

func TestTraceRecordsSpansAndTasks(t *testing.T) {
	resetForTest(t)
	timeNow = fakeClock()
	EnableTrace(1024, 1)

	s := StartSpan("flow")
	inner := StartSpan("profile")
	TraceStart().End("sim", "launch")
	TraceTask(3, "profile", timeNow(), 7*time.Millisecond)
	inner.End()
	s.End()

	doc := BuildChromeTrace()
	if got := countPhase(doc, "X"); got != 4 { // 2 spans + 1 burst + 1 task
		t.Errorf("complete events = %d, want 4", got)
	}
	byName := map[string]chromeEvent{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "M" {
			byName[ev.Name] = ev
		}
	}
	if ev := byName["flow"]; ev.Pid != LaneStages || ev.Cat != "stage" {
		t.Errorf("stage span on wrong lane: %+v", ev)
	}
	if ev := byName["profile"]; ev.Pid != LaneWorkers || ev.Tid != 3 || ev.Dur != 7000 {
		t.Errorf("worker task wrong: %+v", ev)
	}
	// Nesting: the launch burst must fall inside the outer span.
	outer, burst := byName["flow"], byName["launch"]
	if burst.Ts < outer.Ts || burst.Ts+burst.Dur > outer.Ts+outer.Dur {
		t.Errorf("burst [%g,%g] not nested in outer span [%g,%g]",
			burst.Ts, burst.Ts+burst.Dur, outer.Ts, outer.Ts+outer.Dur)
	}
}

// TestTraceConcurrent hammers every trace entry point from many
// goroutines; under -race this is the data-race proof, and the event
// count proves nothing is lost below capacity.
func TestTraceConcurrent(t *testing.T) {
	resetForTest(t)
	EnableTrace(1<<16, 1)
	const goroutines, perG = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				TraceTask(w, "task", timeNow(), time.Microsecond)
				TraceStart().End("cat", "burst")
			}
		}(w)
	}
	wg.Wait()
	evs, dropped := traceSnapshot()
	if dropped != 0 {
		t.Fatalf("dropped %d events below capacity", dropped)
	}
	if len(evs) != goroutines*perG*2 {
		t.Fatalf("recorded %d events, want %d", len(evs), goroutines*perG*2)
	}
}

// TestTraceRingWraps: a tiny buffer keeps only the newest events per
// shard and counts the overwritten ones as dropped.
func TestTraceRingWraps(t *testing.T) {
	resetForTest(t)
	EnableTrace(1, 1) // clamps to 64 slots per shard
	const total = 1000
	for i := 0; i < total; i++ {
		TraceTask(0, "task", timeNow(), 0) // tid 0: single shard
	}
	evs, dropped := traceSnapshot()
	if len(evs) != 64 {
		t.Fatalf("kept %d events, want the 64-slot shard", len(evs))
	}
	if dropped != total-64 {
		t.Fatalf("dropped = %d, want %d", dropped, total-64)
	}
	doc := BuildChromeTrace()
	if got := doc.OtherData["dropped"].(int64); got != total-64 {
		t.Fatalf("otherData dropped = %v, want %d", got, total-64)
	}
}

// TestTraceKeepsStageSpans: a finished stage span survives a ring that
// wraps many times over on the same goroutine, because stage events
// come from the span tree, not the ring.
func TestTraceKeepsStageSpans(t *testing.T) {
	resetForTest(t)
	EnableTrace(1, 1) // clamps to 64 slots per shard
	StartSpan("build").End()
	for i := 0; i < 2*64*traceShards; i++ {
		TraceStart().End("sim", "launch")
	}
	stages := 0
	for _, ev := range BuildChromeTrace().TraceEvents {
		if ev.Cat == "stage" && ev.Name == "build" {
			stages++
		}
	}
	if stages != 1 {
		t.Fatalf("export holds %d \"build\" stage events after the ring wrapped, want 1", stages)
	}
}

func TestWriteTraceValidChromeJSON(t *testing.T) {
	resetForTest(t)
	timeNow = fakeClock()
	EnableTrace(1024, 1)
	s := StartSpan("flow")
	TraceTask(1, "profile", timeNow(), time.Millisecond)
	s.End()

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := WriteTrace(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		DisplayUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if doc.DisplayUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayUnit)
	}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		for _, k := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := ev[k]; !ok {
				t.Fatalf("event missing %q: %v", k, ev)
			}
		}
		if ev["ph"] == "M" {
			names[ev["args"].(map[string]any)["name"].(string)] = true
		}
	}
	for _, want := range []string{"pipeline stages", "worker pool", "worker 1"} {
		if !names[want] {
			t.Errorf("metadata name %q missing (have %v)", want, names)
		}
	}
}

func TestTraceTaskSample(t *testing.T) {
	resetForTest(t)
	EnableTrace(1024, 7)
	if got := TraceTaskSample(); got != 7 {
		t.Errorf("sample = %d, want 7", got)
	}
	EnableTrace(1024, 0)
	if got := TraceTaskSample(); got != 1 {
		t.Errorf("sample floor = %d, want 1", got)
	}
}
