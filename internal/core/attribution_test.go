package core

import (
	"testing"

	"scap/internal/obs"
)

// TestDynamicIRDropAllMetersEveryToggle: the batched IR-drop analysis
// launches every pattern once, as ProfilePatterns does, so both must add
// the same count to power.toggles_metered, for any worker count. A meter
// flushes its count on its next Reset or block report, so the last
// pattern a worker runs is counted only if its step reports it.
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
