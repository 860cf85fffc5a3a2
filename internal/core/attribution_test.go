package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"scap/internal/obs"
	"scap/internal/soc"
)

// hotspotJSON runs fn with instrumentation enabled on a clean registry
// and returns the marshaled hotspot tables it produced (map keys
// marshal sorted, so equal tables give equal bytes).
func hotspotJSON(t *testing.T, fn func()) []byte {
	t.Helper()
	obs.Reset()
	obs.Enable()
	defer func() {
		obs.Reset()
		obs.Disable()
	}()
	fn()
	b, err := json.Marshal(obs.BuildReport("test", nil).Hotspots)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestHotspotTablesWorkerIndependent is the attribution contract for the
// profiling pipeline: every hotspot table (pattern SCAP, packed screen,
// IR-drop) ranks on deterministic quantities, so the serialized tables
// must be byte-identical for any -workers value.
func TestHotspotTablesWorkerIndependent(t *testing.T) {
	sys, _, conv, _ := build(t)
	run := func(workers int) []byte {
		return hotspotJSON(t, func() {
			setWorkers(t, sys, workers)
			if _, err := sys.ProfilePatterns(conv); err != nil {
				t.Fatal(err)
			}
			screens, err := sys.ScreenPatterns(conv)
			if err != nil {
				t.Fatal(err)
			}
			ScreenTop(screens, soc.B5, 0.25)
			if _, err := sys.DynamicIRDropAll(conv, ModelSCAP); err != nil {
				t.Fatal(err)
			}
		})
	}
	want := run(1)
	var tables map[string]obs.TopKReport
	if err := json.Unmarshal(want, &tables); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"core.pattern_hotspots", "core.screen_hotspots", "core.irdrop_hotspots"} {
		if len(tables[name].Entries) == 0 {
			t.Errorf("serial run recorded no %s entries", name)
		}
	}
	for _, workers := range []int{2, 8} {
		if got := run(workers); !bytes.Equal(got, want) {
			t.Errorf("workers=%d: hotspot tables differ from serial\nserial: %s\npar:    %s",
				workers, want, got)
		}
	}
}

// TestDynamicIRDropAllMetersEveryToggle: the batched IR-drop analysis
// launches every pattern once, as ProfilePatterns does, so both must add
// the same count to power.toggles_metered, for any worker count. Each
// worker's meter only flushes on its next pattern, so the last pattern a
// worker runs is counted only if the pool is flushed at the end.
func TestDynamicIRDropAllMetersEveryToggle(t *testing.T) {
	sys, _, conv, _ := build(t)
	obs.Reset()
	obs.Enable()
	defer func() {
		obs.Reset()
		obs.Disable()
	}()
	metered := func() int64 { return obs.BuildReport("test", nil).Counters["power.toggles_metered"] }
	setWorkers(t, sys, 1)
	before := metered()
	if _, err := sys.ProfilePatterns(conv); err != nil {
		t.Fatal(err)
	}
	want := metered() - before
	if want == 0 {
		t.Fatal("ProfilePatterns metered no toggles")
	}
	for _, workers := range []int{1, 2} {
		sys.Workers = workers
		before := metered()
		if _, err := sys.DynamicIRDropAll(conv, ModelSCAP); err != nil {
			t.Fatal(err)
		}
		if got := metered() - before; got != want {
			t.Errorf("workers=%d: DynamicIRDropAll metered %d toggles, ProfilePatterns %d", workers, got, want)
		}
	}
}
