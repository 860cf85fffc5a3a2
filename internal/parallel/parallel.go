// Package parallel provides the worker-pool primitive the per-pattern
// analysis layers fan out on: thousands of independent pattern
// evaluations (timing simulation + SCAP accounting, per-pattern grid
// solves, Monte-Carlo trials) dealt across GOMAXPROCS workers.
//
// The concurrency contract is deliberately narrow so results stay
// deterministic for any worker count:
//
//   - every worker owns its scratch state (cloned simulator, meter,
//     solver buffers), identified by the worker id passed to the body;
//   - the body writes only into index-addressed slots of pre-sized
//     output slices, never into shared accumulators;
//   - Workers == 1 runs the body inline on the caller's goroutine —
//     the exact serial path, with no pool machinery at all.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"scap/internal/obs"
)

// Pool observability: busy time and pool utilization (busy / capacity).
// Timing is only taken while instrumentation is enabled; workers
// accumulate locally and flush once per For call.
var (
	cBusyNs = obs.NewCounter("parallel.busy_ns")
	cCapNs  = obs.NewCounter("parallel.capacity_ns")
)

func init() {
	obs.RegisterDerived("parallel.utilization", func(c map[string]int64) (float64, bool) {
		busy, capacity := c["parallel.busy_ns"], c["parallel.capacity_ns"]
		if capacity <= 0 {
			return 0, false
		}
		return float64(busy) / float64(capacity), true
	})
}

// Resolve normalizes a Workers knob: any value <= 0 means "all cores"
// (runtime.GOMAXPROCS), 1 forces the exact serial path, larger values
// are taken as-is.
func Resolve(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// For runs body(worker, i) once for every i in [0, n), fanned across
// Resolve(workers) goroutines. Worker ids are dense in
// [0, min(workers, n)), so callers can pre-build one scratch state per
// worker and index it by id. Indices are dealt from a shared counter,
// so the i handled by a given worker is scheduling-dependent — bodies
// must treat the worker id as "which scratch state" only, never as a
// partition of the data.
//
// On error the pool drains: workers stop taking new indices, and the
// error with the smallest index among those that failed is returned
// (matching what the serial path would have surfaced first). With
// workers resolved to 1, For degenerates to a plain loop with
// fail-fast semantics.
func For(workers, n int, body func(worker, i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Resolve(workers)
	if workers > n {
		workers = n
	}
	measure := obs.On()
	// Tracing rides on top of measurement (EnableTrace implies Enable):
	// the stage label and sampling stride are resolved once per For, and
	// each worker applies the stride to its own task count so the event
	// set stays deterministic per worker.
	traceOn := obs.TraceOn()
	var stage string
	var sample int64 = 1
	if traceOn {
		if stage = obs.CurrentStage(); stage == "" {
			stage = "task"
		}
		sample = int64(obs.TraceTaskSample())
	}
	var t0 time.Time
	if measure {
		t0 = time.Now()
	}
	if workers == 1 {
		// Serial path: the one worker is busy for the whole wall time.
		flush := func() {
			if !measure {
				return
			}
			busy := time.Since(t0).Nanoseconds()
			cBusyNs.Add(busy)
			cCapNs.Add(busy)
		}
		for i := 0; i < n; i++ {
			sampled := traceOn && int64(i)%sample == 0
			var ts time.Time
			if sampled {
				ts = time.Now()
			}
			err := body(0, i)
			if sampled {
				obs.TraceTask(0, stage, ts, time.Since(ts))
			}
			if err != nil {
				flush()
				return err
			}
		}
		flush()
		return nil
	}

	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup

		mu       sync.Mutex
		firstIdx = n
		firstErr error

		busyTotal atomic.Int64
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var busy int64
			var tasks int64
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					break
				}
				var ts time.Time
				if measure {
					ts = time.Now()
				}
				err := body(w, i)
				if measure {
					d := time.Since(ts)
					busy += d.Nanoseconds()
					if traceOn && tasks%sample == 0 {
						obs.TraceTask(w, stage, ts, d)
					}
					tasks++
				}
				if err != nil {
					mu.Lock()
					if i < firstIdx {
						firstIdx, firstErr = i, err
					}
					mu.Unlock()
					failed.Store(true)
					break
				}
			}
			if measure {
				busyTotal.Add(busy)
			}
		}(w)
	}
	wg.Wait()
	if measure {
		wall := time.Since(t0).Nanoseconds()
		cBusyNs.Add(busyTotal.Load())
		cCapNs.Add(wall * int64(workers))
	}
	return firstErr
}
