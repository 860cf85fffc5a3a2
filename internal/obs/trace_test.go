package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
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
	StartSpan("never").End()
	if got := countPhase(BuildChromeTrace(), "X"); got != 0 {
		t.Fatalf("disabled layer traced %d complete events", got)
	}
}

// TestTraceRecordsSpansAndTasks: every span lands on the pipeline-stages
// lane (pid 1) in the "stage" category, with µs timestamps, and an inner
// span nests inside its parent. Worker tasks and launch bursts are not
// traced, so the spans are the only complete events.
func TestTraceRecordsSpansAndTasks(t *testing.T) {
	resetForTest(t)
	timeNow = fakeClock()
	Enable()

	s := StartSpan("flow")        // t=0
	inner := StartSpan("profile") // t=10
	inner.End()                   // t=20
	s.End()                       // t=30

	doc := BuildChromeTrace()
	if got := countPhase(doc, "X"); got != 2 {
		t.Errorf("complete events = %d, want the 2 spans", got)
	}
	byName := map[string]chromeEvent{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "M" {
			byName[ev.Name] = ev
		}
	}
	for _, name := range []string{"flow", "profile"} {
		if ev := byName[name]; ev.Pid != 1 || ev.Cat != "stage" {
			t.Errorf("stage span %q on wrong lane: %+v", name, ev)
		}
	}
	outer, in := byName["flow"], byName["profile"]
	if outer.Ts != 0 || outer.Dur != 30e3 || in.Ts != 10e3 || in.Dur != 10e3 {
		t.Errorf("flow at %g µs for %g µs, profile at %g µs for %g µs; want 0/30000 and 10000/10000",
			outer.Ts, outer.Dur, in.Ts, in.Dur)
	}
	if in.Ts < outer.Ts || in.Ts+in.Dur > outer.Ts+outer.Dur {
		t.Errorf("inner span [%g,%g] not nested in outer span [%g,%g]",
			in.Ts, in.Ts+in.Dur, outer.Ts, outer.Ts+outer.Dur)
	}
}

// TestTraceKeepsStageSpans: the trace holds one "stage" complete event
// per span of the report, in the report's order, with the report's
// start and wall time in µs, all on tid 1, and nothing else.
// EnableTrace switches the span tree on whatever its arguments.
func TestTraceKeepsStageSpans(t *testing.T) {
	resetForTest(t)
	timeNow = fakeClock()
	EnableTrace(1, 1)

	flow := StartSpan("flow")  // t=0
	atpg := StartSpan("atpg")  // t=10
	atpg.End()                 // t=20
	prof := StartSpan("prof")  // t=30
	inner := StartSpan("fill") // t=40
	inner.End()                // t=50
	prof.End()                 // t=60
	flow.End()                 // t=70
	StartSpan("write").End()   // t=80..90, a second root

	var want []chromeEvent
	var walk func(s *SpanReport)
	walk = func(s *SpanReport) {
		want = append(want, chromeEvent{Name: s.Name, Cat: "stage", Ph: "X",
			Ts: s.StartMs * 1e3, Dur: s.WallMs * 1e3, Pid: 1, Tid: 1})
		for _, c := range s.Children {
			walk(c)
		}
	}
	for _, s := range BuildReport("test", nil).Stages {
		walk(s)
	}
	var got []chromeEvent
	for _, ev := range BuildChromeTrace().TraceEvents {
		if ev.Ph != "M" {
			got = append(got, ev)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("trace events\n%+v\nwant the report's spans\n%+v", got, want)
	}
	names := make([]string, len(got))
	for i, ev := range got {
		names[i] = ev.Name
	}
	if want := []string{"flow", "atpg", "prof", "fill", "write"}; !reflect.DeepEqual(names, want) {
		t.Errorf("stage events %v, want %v", names, want)
	}
	if fill := got[3]; fill.Ts != 40e3 || fill.Dur != 10e3 {
		t.Errorf("fill at ts %g µs for %g µs, want 40000 for 10000", fill.Ts, fill.Dur)
	}
}

func TestWriteTraceValidChromeJSON(t *testing.T) {
	resetForTest(t)
	timeNow = fakeClock()
	Enable()
	s := StartSpan("flow")
	StartSpan("profile").End()
	s.End()

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := BuildReport("test", nil).WriteTrace(path); err != nil {
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
	var stages []any
	lane := false
	for _, ev := range doc.TraceEvents {
		for _, k := range []string{"name", "ph", "pid", "tid", "ts", "dur"} {
			if _, ok := ev[k]; !ok {
				t.Fatalf("event missing %q: %v", k, ev)
			}
		}
		switch ev["ph"] {
		case "M":
			lane = lane || ev["args"].(map[string]any)["name"] == "pipeline stages"
		case "X":
			stages = append(stages, ev["name"])
		}
	}
	if !lane {
		t.Error("no \"pipeline stages\" process name")
	}
	if want := []any{"flow", "profile"}; !reflect.DeepEqual(stages, want) {
		t.Errorf("complete events %v, want %v", stages, want)
	}
}
