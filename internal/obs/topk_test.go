package obs

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// TestTopKOrderIndependence is the attribution determinism property: for
// one record set, the snapshot must be identical no matter how the
// records are permuted or spread across goroutines — this is what makes
// the hotspot tables bit-identical for any -workers value.
func TestTopKOrderIndependence(t *testing.T) {
	const n, k = 200, 16
	type rec struct {
		id, cost int64
		label    string
		field    float64
	}
	rng := rand.New(rand.NewSource(7))
	recs := make([]rec, n)
	for i := range recs {
		// Deliberately many cost collisions to exercise the tie-breaks.
		recs[i] = rec{id: int64(i), cost: int64(rng.Intn(20)), label: []string{"a", "b"}[rng.Intn(2)], field: float64(rng.Intn(5))}
	}
	run := func(order []int, workers int) []TopEntry {
		resetForTest(t)
		Enable()
		tk := NewTopK("t.order", k, "cost", "f")
		if workers <= 1 {
			for _, i := range order {
				r := recs[i]
				tk.Record(r.id, r.cost, r.label, r.field)
			}
		} else {
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for j := w; j < len(order); j += workers {
						r := recs[order[j]]
						tk.Record(r.id, r.cost, r.label, r.field)
					}
				}(w)
			}
			wg.Wait()
		}
		return tk.Snapshot()
	}

	base := make([]int, n)
	for i := range base {
		base[i] = i
	}
	want := run(base, 1)
	if len(want) != k {
		t.Fatalf("snapshot has %d entries, want %d", len(want), k)
	}
	for trial := 0; trial < 5; trial++ {
		perm := rng.Perm(n)
		if got := run(perm, 1); !reflect.DeepEqual(got, want) {
			t.Fatalf("permuted insertion changed the table:\n got %+v\nwant %+v", got, want)
		}
	}
	for _, workers := range []int{2, 8} {
		if got := run(base, workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("%d-worker insertion changed the table:\n got %+v\nwant %+v", workers, got, want)
		}
	}
}

func TestTopKBoundedAndSorted(t *testing.T) {
	resetForTest(t)
	Enable()
	tk := NewTopK("t.bounded", 4, "cost")
	for i := 0; i < 100; i++ {
		tk.Record(int64(i), int64(i), "")
	}
	snap := tk.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("table grew to %d entries, want 4", len(snap))
	}
	for i, e := range snap {
		if want := int64(99 - i); e.Cost != want {
			t.Errorf("entry %d cost = %d, want %d (best-first)", i, e.Cost, want)
		}
	}
}

func TestTopKTieBreaks(t *testing.T) {
	resetForTest(t)
	Enable()
	tk := NewTopK("t.ties", 2, "cost")
	tk.Record(9, 10, "z")
	tk.Record(2, 10, "a")
	tk.Record(5, 10, "a")
	snap := tk.Snapshot()
	// Equal cost: lower id wins admission and sorts first.
	if snap[0].ID != 2 || snap[1].ID != 5 {
		t.Fatalf("tie-break by id failed: %+v", snap)
	}
}

func TestTopKDisabledIsNoop(t *testing.T) {
	resetForTest(t)
	tk := NewTopK("t.disabled", 4, "cost")
	tk.Record(1, 100, "x")
	if snap := tk.Snapshot(); len(snap) != 0 {
		t.Fatalf("disabled TopK recorded: %+v", snap)
	}
}

func TestTopKRegistryDedup(t *testing.T) {
	resetForTest(t)
	if NewTopK("t.dup.topk", 4, "cost") != NewTopK("t.dup.topk", 4, "cost") {
		t.Error("NewTopK returned distinct tables for one name")
	}
}

func TestSnapshotSeries(t *testing.T) {
	resetForTest(t)
	Enable()
	timeNow = fakeClock()
	c := NewCounter("t.series.counter")
	c.Add(5)
	TakeSnapshot()
	c.Add(5)
	TakeSnapshot()
	snaps := Snapshots()
	if len(snaps) != 2 {
		t.Fatalf("series has %d snapshots, want 2", len(snaps))
	}
	if snaps[0].AtMs != 0 || snaps[1].AtMs != 10 {
		t.Errorf("timestamps = %g, %g; want 0, 10", snaps[0].AtMs, snaps[1].AtMs)
	}
	if snaps[0].Counters["t.series.counter"] != 5 || snaps[1].Counters["t.series.counter"] != 10 {
		t.Errorf("counter trajectory wrong: %+v", snaps)
	}
}
