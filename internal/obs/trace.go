package obs

import (
	"encoding/json"
	"fmt"
	"os"
)

// The trace is the run report's stage tree drawn as a timeline: the
// CLIs' -trace flag writes one Chrome complete event per span, with the
// span's start and wall time, as trace-event JSON loadable in Perfetto
// or chrome://tracing. It records nothing of its own; a run's trace and
// its report render the same snapshot of the span tree.

// chromeEvent is one serialized Chrome trace event. Timestamps and
// durations are microseconds per the trace-event format spec.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// chromeTraceOf renders a stage tree as a Chrome trace-event document:
// one "stage" complete event per span, all on tid 1 (every span opens
// on the goroutine that drives the pipeline), with ts and dur the
// span's start_ms and wall_ms in µs.
func chromeTraceOf(stages []*SpanReport) *chromeTrace {
	doc := &chromeTrace{
		TraceEvents: []chromeEvent{{
			Name: "process_name", Ph: "M", Pid: 1,
			Args: map[string]any{"name": "pipeline stages"},
		}},
		DisplayTimeUnit: "ms",
	}
	var walk func(s *SpanReport)
	walk = func(s *SpanReport) {
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: s.Name,
			Cat:  "stage",
			Ph:   "X",
			Ts:   s.StartMs * 1e3,
			Dur:  s.WallMs * 1e3,
			Pid:  1,
			Tid:  1,
		})
		for _, c := range s.Children {
			walk(c)
		}
	}
	for _, s := range stages {
		walk(s)
	}
	return doc
}

// BuildChromeTrace renders the current span tree as a Chrome
// trace-event document.
func BuildChromeTrace() *chromeTrace { return chromeTraceOf(spanReports()) }

// EnableTrace is Enable: the trace is drawn from the span tree that
// Enable records. Both arguments are unused. It and DisableTrace remain
// only for the benchmark harness under bench/, which calls them.
func EnableTrace(capacity, sample int) { Enable() }

// DisableTrace does nothing; see EnableTrace.
func DisableTrace() {}

// WriteTrace writes the report's stage tree to path as Chrome
// trace-event JSON, checking every write error including Close.
func (r *Report) WriteTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: trace: %w", err)
	}
	if err := json.NewEncoder(f).Encode(chromeTraceOf(r.Stages)); err != nil {
		f.Close()
		return fmt.Errorf("obs: trace encode: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("obs: trace close: %w", err)
	}
	return nil
}
