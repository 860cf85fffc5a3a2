package repro

import (
	"math"
	"strings"
	"sync"
	"testing"
)

var (
	ronce sync.Once
	rg    *Runner
	rerr  error
)

func runner(t *testing.T) *Runner {
	t.Helper()
	ronce.Do(func() { rg, rerr = New(48) })
	if rerr != nil {
		t.Fatal(rerr)
	}
	return rg
}

func TestAllExperimentsProduceReports(t *testing.T) {
	r := runner(t)
	for _, id := range Experiments {
		out, err := r.Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(out) < 80 {
			t.Fatalf("%s: suspiciously short report:\n%s", id, out)
		}
	}
}

func TestUnknownExperimentRejected(t *testing.T) {
	r := runner(t)
	if _, err := r.Run("table99"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestTable3ReportsDoubling(t *testing.T) {
	r := runner(t)
	out, err := r.Table3()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Case2/Case1 chip power ratio: 2.00") {
		t.Fatalf("Table 3 missing the doubling check:\n%s", out)
	}
	if !strings.Contains(out, "hottest block: B5") {
		t.Fatalf("Table 3 hot block is not B5:\n%s", out)
	}
}

func TestTable4SCAPAboveCAP(t *testing.T) {
	r := runner(t)
	out, err := r.Table4()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "SCAP/CAP power ratio:") {
		t.Fatalf("Table 4 missing ratio:\n%s", out)
	}
}

func TestFig2AndFig6Contrast(t *testing.T) {
	r := runner(t)
	f2, err := r.Fig2()
	if err != nil {
		t.Fatal(err)
	}
	f6, err := r.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"threshold", "paper: 2253 of 5846"} {
		if !strings.Contains(f2, want) {
			t.Fatalf("Fig2 missing %q", want)
		}
	}
	for _, want := range []string{"quiet prefix", "paper: 57 of 6490"} {
		if !strings.Contains(f6, want) {
			t.Fatalf("Fig6 missing %q", want)
		}
	}
}

// TestFig5LeavesParasiticsUnchanged: Fig. 5 writes the design's SPEF, and
// every meter built after it (Fig. 7, the extensions) must read the same
// wire caps and delays as a run without it, bit for bit. It builds its
// own runner: the shared one may already have run Fig. 5.
func TestFig5LeavesParasiticsUnchanged(t *testing.T) {
	r, err := New(48)
	if err != nil {
		t.Fatal(err)
	}
	nets := r.Sys.D.Nets
	before := make([][2]uint64, len(nets))
	for i := range nets {
		before[i] = [2]uint64{math.Float64bits(nets[i].WireCap), math.Float64bits(nets[i].WireDelay)}
	}
	if _, err := r.Fig5(); err != nil {
		t.Fatal(err)
	}
	for i := range nets {
		if got := [2]uint64{math.Float64bits(nets[i].WireCap), math.Float64bits(nets[i].WireDelay)}; got != before[i] {
			t.Fatalf("net %s: parasitics (%v, %v) after Fig5, (%v, %v) before", nets[i].Name,
				nets[i].WireCap, nets[i].WireDelay,
				math.Float64frombits(before[i][0]), math.Float64frombits(before[i][1]))
		}
	}
}

func TestFig7RegionsPresent(t *testing.T) {
	r := runner(t)
	out, err := r.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Region 1") || !strings.Contains(out, "Region 2") {
		t.Fatalf("Fig7 missing regions:\n%s", out)
	}
}

func TestAllConcatenates(t *testing.T) {
	r := runner(t)
	out, err := r.All()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"Table 1", "Table 4", "Figure 1", "Figure 7"} {
		if !strings.Contains(out, id) {
			t.Fatalf("All() missing %s", id)
		}
	}
}
