package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"scap/internal/textplot"
)

// SchemaVersion identifies the run-report JSON layout. Bump it on any
// structural change; the golden-file test pins the current shape.
// v2 added the free-form `info` block (mesh geometry, factor fill —
// see SetRunInfo). v3 added per-unit attribution:
// top-K hotspot tables (`hotspots`), periodic metric snapshots
// (`snapshots`) and p50/p95/p99 quantiles on histograms. v4 dropped
// `snapshots` together with the sampler that filled it. v5 dropped the
// per-worker vectors (`per_worker`) and the histogram quantiles. v6
// dropped the `gauges` and `histograms` blocks: no question the run
// report answers read them. v7 dropped the `hotspots` tables, which
// nothing read, and each span's `goroutine`: every span opens on the
// goroutine that drives the pipeline.
const SchemaVersion = "scap/run-report/v7"

// runInfo is the process-wide run-information block: small key/value
// facts about how the run was configured or what the build produced
// (mesh edge and node count, grid factor nnz/fill ratio). Unlike counters these are set-once descriptive
// values, surfaced both in the JSON report and the exit-time summary.
var runInfo = struct {
	mu sync.Mutex
	kv map[string]any
}{kv: map[string]any{}}

// SetRunInfo records one descriptive run fact under key, overwriting
// any previous value. Values must be JSON-marshalable (strings and
// numbers in practice). A no-op while instrumentation is disabled, like
// all recording.
func SetRunInfo(key string, v any) {
	if !enabled.Load() {
		return
	}
	runInfo.mu.Lock()
	runInfo.kv[key] = v
	runInfo.mu.Unlock()
}

// Provenance records where and how a report was produced, so numbers
// stay comparable across machines and commits.
type Provenance struct {
	GitSHA     string `json:"git_sha"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Hostname   string `json:"hostname"`
}

// CollectProvenance gathers the current build/host provenance. The git
// SHA comes from the binary's embedded VCS stamp when present, and
// otherwise from walking up to the repo's .git/HEAD (the `go run` and
// `go test` paths, which build without VCS stamping).
func CollectProvenance() Provenance {
	host, _ := os.Hostname()
	return Provenance{
		GitSHA:     gitSHA(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Hostname:   host,
	}
}

// gitSHA resolves the current commit without shelling out to git.
func gitSHA() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	dir, err := os.Getwd()
	if err != nil {
		return ""
	}
	for {
		head, err := os.ReadFile(filepath.Join(dir, ".git", "HEAD"))
		if err == nil {
			return resolveHead(filepath.Join(dir, ".git"), strings.TrimSpace(string(head)))
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return ""
		}
		dir = parent
	}
}

// resolveHead dereferences a symbolic HEAD ("ref: refs/heads/x") via
// the loose ref file or packed-refs; a detached HEAD is already a SHA.
func resolveHead(gitDir, head string) string {
	ref, ok := strings.CutPrefix(head, "ref: ")
	if !ok {
		return head
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return ""
}

// SpanReport is one serialized stage span. Times are milliseconds
// relative to the first span of the run.
type SpanReport struct {
	Name     string        `json:"name"`
	StartMs  float64       `json:"start_ms"`
	WallMs   float64       `json:"wall_ms"`
	Children []*SpanReport `json:"children,omitempty"`
}

// Report is the versioned machine-readable run report the -report flag
// emits. Map keys marshal sorted, so the JSON is stable for a given
// run.
type Report struct {
	Schema     string             `json:"schema"`
	Tool       string             `json:"tool"`
	Provenance Provenance         `json:"provenance"`
	Config     any                `json:"config,omitempty"`
	Info       map[string]any     `json:"info,omitempty"`
	Stages     []*SpanReport      `json:"stages,omitempty"`
	Counters   map[string]int64   `json:"counters,omitempty"`
	Derived    map[string]float64 `json:"derived,omitempty"`
}

// BuildReport snapshots the registry and span tree into a Report.
// config (optional) is embedded verbatim — the CLIs pass their resolved
// core.Config so a report is self-describing.
func BuildReport(tool string, config any) *Report {
	r := &Report{
		Schema:     SchemaVersion,
		Tool:       tool,
		Provenance: CollectProvenance(),
		Config:     config,
	}

	runInfo.mu.Lock()
	if len(runInfo.kv) > 0 {
		r.Info = make(map[string]any, len(runInfo.kv))
		for k, v := range runInfo.kv {
			r.Info[k] = v
		}
	}
	runInfo.mu.Unlock()

	reg.mu.Lock()
	counters := make(map[string]int64, len(reg.counters))
	for name, c := range reg.counters {
		counters[name] = c.Value()
	}
	if len(counters) > 0 {
		r.Counters = counters
	}
	for name, fn := range reg.derived {
		if v, ok := fn(counters); ok {
			if r.Derived == nil {
				r.Derived = map[string]float64{}
			}
			r.Derived[name] = v
		}
	}
	reg.mu.Unlock()

	r.Stages = spanReports()
	return r
}

// spanReports snapshots the span tree as the report serializes it.
func spanReports() []*SpanReport {
	trace.mu.Lock()
	defer trace.mu.Unlock()
	var out []*SpanReport
	for _, s := range trace.roots {
		out = append(out, spanReport(s, trace.epoch))
	}
	return out
}

func spanReport(s *Span, epoch time.Time) *SpanReport {
	end := s.end
	if end.IsZero() {
		end = timeNow() // still-open span: report progress so far
	}
	sr := &SpanReport{
		Name:    s.name,
		StartMs: float64(s.start.Sub(epoch)) / float64(time.Millisecond),
		WallMs:  float64(end.Sub(s.start)) / float64(time.Millisecond),
	}
	for _, c := range s.children {
		sr.Children = append(sr.Children, spanReport(c, epoch))
	}
	return sr
}

// WriteFile marshals the report as indented JSON to path, checking
// every write error including Close.
func (r *Report) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: report: %w", err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		f.Close()
		return fmt.Errorf("obs: report encode: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("obs: report close: %w", err)
	}
	return nil
}

// SummaryTable renders the report's stage tree as the human-readable
// table the CLIs print at exit, followed by the run info, the named
// counters (a name the report lacks prints 0) and the derived metrics.
func (r *Report) SummaryTable(counters ...string) string {
	var rows []textplot.StageRow
	var walk func(s *SpanReport, depth int)
	walk = func(s *SpanReport, depth int) {
		rows = append(rows, textplot.StageRow{
			Label: strings.Repeat("  ", depth) + s.Name,
			Ms:    s.WallMs,
		})
		for _, c := range s.Children {
			walk(c, depth+1)
		}
	}
	for _, s := range r.Stages {
		walk(s, 0)
	}
	var b strings.Builder
	b.WriteString(textplot.StageTable(rows, 32, "stage summary"))
	if len(r.Info) > 0 {
		keys := make([]string, 0, len(r.Info))
		for k := range r.Info {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "  %s = %v\n", k, r.Info[k])
		}
	}
	for _, k := range counters {
		fmt.Fprintf(&b, "  %s = %d\n", k, r.Counters[k])
	}
	if len(r.Derived) > 0 {
		keys := make([]string, 0, len(r.Derived))
		for k := range r.Derived {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "  %s = %.4g\n", k, r.Derived[k])
		}
	}
	return b.String()
}
