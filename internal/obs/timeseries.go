package obs

import (
	"sync"
	"time"
)

// Snapshots are timed samples of the counter registry, taken on
// request. A caller that runs several units in one process (the
// repository benchmark) takes one at the end of each unit to read that
// unit's counters; the run report does not carry them.

// Snapshot is one timed sample of the metric registry. AtMs is relative
// to the first snapshot of the run.
type Snapshot struct {
	AtMs     float64          `json:"at_ms"`
	Counters map[string]int64 `json:"counters,omitempty"`
}

var series struct {
	mu      sync.Mutex
	epoch   time.Time
	entries []Snapshot
}

// TakeSnapshot samples the registry now and appends it to the series
// (a no-op while instrumentation is disabled). Zero-valued metrics are
// omitted.
func TakeSnapshot() {
	if !enabled.Load() {
		return
	}
	now := timeNow()
	snap := Snapshot{}
	reg.mu.Lock()
	for name, c := range reg.counters {
		if v := c.Value(); v != 0 {
			if snap.Counters == nil {
				snap.Counters = map[string]int64{}
			}
			snap.Counters[name] = v
		}
	}
	reg.mu.Unlock()

	series.mu.Lock()
	if series.epoch.IsZero() {
		series.epoch = now
	}
	snap.AtMs = float64(now.Sub(series.epoch)) / float64(time.Millisecond)
	series.entries = append(series.entries, snap)
	series.mu.Unlock()
}

// Snapshots returns a copy of the recorded series, oldest first.
func Snapshots() []Snapshot {
	series.mu.Lock()
	defer series.mu.Unlock()
	out := make([]Snapshot, len(series.entries))
	copy(out, series.entries)
	return out
}
