package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// buildGoldenReport assembles a fully deterministic report: fake clock
// for the spans and fixed provenance.
func buildGoldenReport(t *testing.T) *Report {
	t.Helper()
	resetForTest(t)
	Enable()
	timeNow = fakeClock()

	NewCounter("pgrid.sparse.factor.calls").Add(7)
	NewCounter("pgrid.sparse.factor.builds").Add(1)
	RegisterDerived("pgrid.sparse.factor.cache_hits", func(c map[string]int64) (float64, bool) {
		calls := c["pgrid.sparse.factor.calls"]
		return float64(calls - c["pgrid.sparse.factor.builds"]), calls > 0
	})
	SetRunInfo("grid_mesh_n", 40)
	SetRunInfo("sparse_fill_ratio", 2.5)

	flow := StartSpan("flow") // t=0
	atpg := StartSpan("atpg") // t=10
	atpg.End()                // t=20
	flow.End()                // t=30

	r := BuildReport("flow", map[string]any{"scale": 8, "workers": 2})

	// Pin the volatile fields so the JSON is byte-stable everywhere.
	r.Provenance = Provenance{
		GitSHA:     "0000000000000000000000000000000000000000",
		GoVersion:  "go-golden",
		GOMAXPROCS: 8,
		NumCPU:     8,
		Hostname:   "golden-host",
	}
	return r
}

// TestReportGolden pins the run-report JSON schema byte-for-byte. A
// structural change must bump SchemaVersion and regenerate the golden
// with `go test ./internal/obs -run Golden -update`.
func TestReportGolden(t *testing.T) {
	r := buildGoldenReport(t)
	if r.Schema != "scap/run-report/v7" {
		t.Fatalf("schema = %q; bump the golden and this pin together", r.Schema)
	}
	got, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "report_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("report JSON drifted from golden (regenerate with -update if intended)\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestReportWriteFile(t *testing.T) {
	r := buildGoldenReport(t)
	path := filepath.Join(t.TempDir(), "report.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("written report is not valid JSON: %v", err)
	}
	if back.Schema != SchemaVersion || back.Tool != "flow" {
		t.Errorf("round-trip lost header: schema=%q tool=%q", back.Schema, back.Tool)
	}
	if back.Counters["pgrid.sparse.factor.calls"] != 7 {
		t.Errorf("round-trip lost counters: %v", back.Counters)
	}
	if err := r.WriteFile(filepath.Join(t.TempDir(), "no", "such", "dir.json")); err == nil {
		t.Error("WriteFile to a missing directory did not error")
	}
}

func TestSummaryTable(t *testing.T) {
	r := buildGoldenReport(t)
	s := r.SummaryTable("pgrid.sparse.factor.calls", "absent.counter")
	for _, want := range []string{
		"stage summary", "flow", "  atpg",
		"pgrid.sparse.factor.calls = 7", "absent.counter = 0",
		"pgrid.sparse.factor.cache_hits = 6", "grid_mesh_n = 40",
		"sparse_fill_ratio = 2.5",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("summary table missing %q:\n%s", want, s)
		}
	}
	for _, gone := range []string{"quantile", "hotspots:"} {
		if strings.Contains(s, gone) {
			t.Errorf("summary table still prints %q:\n%s", gone, s)
		}
	}
}

func TestCollectProvenance(t *testing.T) {
	p := CollectProvenance()
	if p.GoVersion == "" || p.GOMAXPROCS <= 0 || p.NumCPU <= 0 {
		t.Errorf("provenance incomplete: %+v", p)
	}
	// The test binary runs inside the repo, so the .git/HEAD fallback
	// must resolve to a 40-hex SHA even without a VCS build stamp.
	if len(p.GitSHA) != 40 {
		t.Errorf("git SHA = %q, want a 40-hex commit id", p.GitSHA)
	}
}
