package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// TopK is a bounded hotspot table: the K most expensive units (faults,
// patterns) of a run, each with a deterministic integer ranking cost, a
// short label and a fixed set of named float fields. Tables are the
// per-unit attribution layer on top of the aggregate counters — they
// answer "which faults ate the backtrack budget" instead of "how many
// backtracks happened".
//
// The contract mirrors the rest of the repo's concurrency discipline:
// Record may be called concurrently from any worker, and the final
// table depends only on the *set* of records, never on arrival order or
// worker count — entries are kept under a total order (cost desc, id
// asc, label asc, fields desc), so for a deterministic record set the
// snapshot is bit-identical for any -workers value. Memory is bounded
// at K entries; once the table is full a record strictly below the
// current cost floor is rejected on one atomic load without taking the
// mutex.
type TopK struct {
	name    string
	costKey string
	k       int
	fields  []string

	// floorSet/floor form the lock-free reject path: floor is only
	// meaningful once the table is full.
	full  atomic.Bool
	floor atomic.Int64

	mu      sync.Mutex
	entries []TopEntry
}

// TopEntry is one hotspot-table row.
type TopEntry struct {
	ID     int64     `json:"id"`
	Cost   int64     `json:"cost"`
	Label  string    `json:"label,omitempty"`
	Fields []float64 `json:"fields,omitempty"`
}

// NewTopK registers (or returns the existing) hotspot table under name.
// costKey names the ranking cost in reports; fields fixes the names of
// the per-entry float fields, in Record argument order.
func NewTopK(name string, k int, costKey string, fields ...string) *TopK {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if t, ok := reg.topks[name]; ok {
		return t
	}
	t := &TopK{name: name, costKey: costKey, k: k, fields: fields}
	reg.topks[name] = t
	return t
}

// better is the total order entries are kept under: higher cost wins,
// then lower id, then lower label, then lexicographically larger
// fields. Two entries that compare equal everywhere are identical in
// content, so either may be kept — the snapshot is the same.
func better(a, b *TopEntry) bool {
	if a.Cost != b.Cost {
		return a.Cost > b.Cost
	}
	if a.ID != b.ID {
		return a.ID < b.ID
	}
	if a.Label != b.Label {
		return a.Label < b.Label
	}
	for i := range a.Fields {
		if i >= len(b.Fields) {
			return true
		}
		if a.Fields[i] != b.Fields[i] {
			return a.Fields[i] > b.Fields[i]
		}
	}
	return false
}

// Record offers one unit's cost record to the table when
// instrumentation is enabled. fields must match the names given at
// registration (missing trailing values read as 0 in the order).
func (t *TopK) Record(id, cost int64, label string, fields ...float64) {
	if !enabled.Load() || t.k <= 0 {
		return
	}
	// Fast reject: a full table never admits a cost strictly below its
	// floor (ties can still win on id/label, so they take the mutex).
	if t.full.Load() && cost < t.floor.Load() {
		return
	}
	e := TopEntry{ID: id, Cost: cost, Label: label, Fields: append([]float64(nil), fields...)}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.entries) < t.k {
		t.entries = append(t.entries, e)
		if len(t.entries) == t.k {
			t.refloorLocked()
		}
		return
	}
	worst := 0
	for i := 1; i < len(t.entries); i++ {
		if better(&t.entries[worst], &t.entries[i]) {
			worst = i
		}
	}
	if better(&e, &t.entries[worst]) {
		t.entries[worst] = e
		t.refloorLocked()
	}
}

// refloorLocked recomputes the atomic admission floor; call with mu
// held and the table full.
func (t *TopK) refloorLocked() {
	floor := t.entries[0].Cost
	for i := 1; i < len(t.entries); i++ {
		if t.entries[i].Cost < floor {
			floor = t.entries[i].Cost
		}
	}
	t.floor.Store(floor)
	t.full.Store(true)
}

// Snapshot returns the table's entries sorted best-first under the
// keeping order. The result is deterministic for a deterministic record
// set, independent of insertion order and concurrency.
func (t *TopK) Snapshot() []TopEntry {
	t.mu.Lock()
	out := make([]TopEntry, len(t.entries))
	copy(out, t.entries)
	t.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return better(&out[a], &out[b]) })
	return out
}

// CostKey returns the name of the ranking cost.
func (t *TopK) CostKey() string { return t.costKey }

// FieldNames returns the registered field names.
func (t *TopK) FieldNames() []string { return t.fields }

// resetLocked drops all entries (obs.Reset); call with reg.mu NOT held
// on t itself.
func (t *TopK) reset() {
	t.mu.Lock()
	t.entries = t.entries[:0]
	t.full.Store(false)
	t.floor.Store(0)
	t.mu.Unlock()
}
