package atpg

import (
	"fmt"
	"testing"

	"scap/internal/fault"
)

// TestRunShardedBitIdentical checks the epoch-sharded generator yields the
// same patterns, statuses and detection attribution for 1, 2 and 8
// workers. Run with -race this also exercises the parallel section for
// data races.
func TestRunShardedBitIdentical(t *testing.T) {
	var ref *Result
	var refL *fault.List
	for _, w := range []int{1, 2, 8} {
		r := newRig(t, 96)
		r.fs.Workers = w
		res, err := Run(r.fs, r.l, r.sc, Options{Dom: 0, Fill: FillRandom, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref, refL = res, r.l
			continue
		}
		t.Run(fmt.Sprintf("workers%d", w), func(t *testing.T) {
			comparePatternSets(t, ref, res, refL, r.l)
			if res.Gen != ref.Gen {
				t.Errorf("generation stats differ: w=1 %+v, w=%d %+v", ref.Gen, w, res.Gen)
			}
		})
	}
}

func comparePatternSets(t *testing.T, a, b *Result, la, lb *fault.List) {
	t.Helper()
	if len(a.Patterns) != len(b.Patterns) {
		t.Fatalf("pattern count differs: %d vs %d", len(a.Patterns), len(b.Patterns))
	}
	for i := range a.Patterns {
		pa, pb := &a.Patterns[i], &b.Patterns[i]
		if pa.Target != pb.Target {
			t.Fatalf("pattern %d target differs: %d vs %d", i, pa.Target, pb.Target)
		}
		if len(pa.Secondaries) != len(pb.Secondaries) {
			t.Fatalf("pattern %d secondary count differs: %v vs %v", i, pa.Secondaries, pb.Secondaries)
		}
		for j := range pa.Secondaries {
			if pa.Secondaries[j] != pb.Secondaries[j] {
				t.Fatalf("pattern %d secondaries differ: %v vs %v", i, pa.Secondaries, pb.Secondaries)
			}
		}
		for j := range pa.V1 {
			if pa.V1[j] != pb.V1[j] {
				t.Fatalf("pattern %d V1[%d] differs: %v vs %v", i, j, pa.V1[j], pb.V1[j])
			}
		}
		for j := range pa.PIs {
			if pa.PIs[j] != pb.PIs[j] {
				t.Fatalf("pattern %d PI[%d] differs: %v vs %v", i, j, pa.PIs[j], pb.PIs[j])
			}
		}
	}
	if len(la.Status) != len(lb.Status) {
		t.Fatalf("status length differs")
	}
	for i := range la.Status {
		if la.Status[i] != lb.Status[i] {
			t.Fatalf("fault %d status differs: %v vs %v", i, la.Status[i], lb.Status[i])
		}
		if la.DetectedBy[i] != lb.DetectedBy[i] {
			t.Fatalf("fault %d DetectedBy differs: %d vs %d", i, la.DetectedBy[i], lb.DetectedBy[i])
		}
	}
}
