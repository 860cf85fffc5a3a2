package obs

import "testing"

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
