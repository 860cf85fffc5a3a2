package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"scap/internal/obs"
)

func TestResolve(t *testing.T) {
	if got := Resolve(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Resolve(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Resolve(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Resolve(-3) = %d", got)
	}
	for _, n := range []int{1, 2, 17} {
		if got := Resolve(n); got != n {
			t.Fatalf("Resolve(%d) = %d", n, got)
		}
	}
}

func TestForVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		const n = 500
		counts := make([]atomic.Int32, n)
		err := For(workers, n, func(w, i int) error {
			if w < 0 || w >= workers {
				return fmt.Errorf("worker id %d out of range [0,%d)", w, workers)
			}
			counts[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForIndexAddressedOutputDeterministic(t *testing.T) {
	const n = 1000
	want := make([]int, n)
	if err := For(1, n, func(_, i int) error { want[i] = 3*i + 1; return nil }); err != nil {
		t.Fatal(err)
	}
	got := make([]int, n)
	if err := For(8, n, func(_, i int) error { got[i] = 3*i + 1; return nil }); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("index %d: %d != %d", i, got[i], want[i])
		}
	}
}

func TestForErrorStopsAndSurfacesSmallestIndex(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int32
	err := For(4, 10000, func(_, i int) error {
		ran.Add(1)
		if i == 7 || i == 4000 {
			return fmt.Errorf("index %d: %w", i, boom)
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
	// The pool must drain early: nowhere near all 10000 indices run.
	if r := ran.Load(); r == 10000 {
		t.Fatalf("pool did not stop on error (ran all %d)", r)
	}
	// Serial semantics: the error is fail-fast at the first failing index.
	err = For(1, 100, func(_, i int) error {
		if i >= 10 {
			return fmt.Errorf("index %d: %w", i, boom)
		}
		return nil
	})
	if err == nil || err.Error() != "index 10: boom" {
		t.Fatalf("serial error = %v, want index 10", err)
	}
}

// TestForFlushesPoolMetrics checks that both the serial and pooled
// paths flush busy and capacity time when instrumentation is enabled,
// that the serial path counts its one worker busy for the whole call,
// and that nothing is recorded while disabled.
func TestForFlushesPoolMetrics(t *testing.T) {
	busyOff, capOff := cBusyNs.Value(), cCapNs.Value()
	if err := For(4, 50, func(_, _ int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if cBusyNs.Value() != busyOff || cCapNs.Value() != capOff {
		t.Fatalf("disabled run recorded metrics: busy=%d capacity=%d",
			cBusyNs.Value()-busyOff, cCapNs.Value()-capOff)
	}

	obs.Enable()
	defer obs.Disable()
	cap0 := cCapNs.Value()
	if err := For(4, 100, func(_, _ int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if cCapNs.Value() <= cap0 {
		t.Error("pooled For did not record capacity time")
	}

	busy0, cap0 := cBusyNs.Value(), cCapNs.Value()
	if err := For(1, 10, func(_, _ int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if busy, capacity := cBusyNs.Value()-busy0, cCapNs.Value()-cap0; busy != capacity {
		t.Errorf("serial For flushed busy=%d capacity=%d, want equal", busy, capacity)
	}
}

func TestForEmptyAndSingle(t *testing.T) {
	if err := For(8, 0, func(_, _ int) error { t.Fatal("body ran"); return nil }); err != nil {
		t.Fatal(err)
	}
	ran := 0
	if err := For(8, 1, func(w, i int) error {
		if w != 0 || i != 0 {
			t.Fatalf("w=%d i=%d", w, i)
		}
		ran++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if ran != 1 {
		t.Fatalf("ran %d times", ran)
	}
}
