package sim

import (
	"container/heap"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"scap/internal/logic"
	"scap/internal/netlist"
)

// diffLaunchAt is diffLaunch at any clock period: the flat kernel on
// scratch ls against the reference, comparing the toggle stream, every
// Result field and the settled baseline the scratch holds afterwards,
// and requiring an empty queue. It returns the kernel's Result and
// toggle stream.
func diffLaunchAt(t *testing.T, tag string, tm *Timing, ls *LaunchScratch, c launchCase, period float64) (*Result, []toggleRec) {
	t.Helper()
	var got, want []toggleRec
	rec := func(dst *[]toggleRec) ToggleFn {
		return func(inst netlist.InstID, at float64, rising bool) {
			*dst = append(*dst, toggleRec{inst, at, rising})
		}
	}
	res, err := tm.LaunchInto(ls, c.v1, c.v2, c.pis, period, rec(&got))
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	ref := refLaunch(tm, c.v1, c.v2, c.pis, period, rec(&want))
	if !slices.Equal(got, want) {
		t.Fatalf("%s: toggle streams of %d and %d toggles differ", tag, len(got), len(want))
	}
	requireIdentical(t, tag, res, ref)
	requireRestored(t, tag, tm, ls, c)
	return res, got
}

// requireRestored checks that scratch ls holds the settled baseline of
// case c and an empty queue, as every launch on it must leave it.
func requireRestored(t *testing.T, tag string, tm *Timing, ls *LaunchScratch, c launchCase) {
	t.Helper()
	settled := refSettle(tm.sim.d, c.v1, c.pis)
	if !slices.Equal(ls.nets, settled) || !slices.Equal(ls.projected, settled) {
		t.Fatalf("%s: the scratch does not hold the settled baseline after the launch", tag)
	}
	if ls.q.n != 0 || slices.ContainsFunc(ls.q.head, func(s int32) bool { return s >= 0 }) {
		t.Fatalf("%s: events left in the queue after the launch", tag)
	}
}

// TestQueueEdgeCasesMatchReference runs the calendar queue's edge cases
// against the reference's container/heap queue, all on one scratch, so
// each launch also sets the geometry its predecessor left behind:
//
//   - every rise and fall delay the same value under an ideal clock, so
//     whole waves of events tie exactly in time and only seq orders them;
//   - a 1 ns period, whose 4 ns horizon cuts the glitch tails, alternated
//     with uncut 20 ns launches, so events a cut launch left pending must
//     be gone before the next one;
//   - a 1e6 ns period, whose horizon would need far more buckets than
//     the cap;
//   - every clock arrival zero, so all launching flops tie at time zero;
//   - one launching flop's clock arriving below zero, which LaunchInto
//     rejects after pushing the other flops' launch events: the next
//     launch on the scratch must still match the reference.
func TestQueueEdgeCasesMatchReference(t *testing.T) {
	d, s := socSim(t)
	dl := delaysFor(t, d)
	cases := oracleCases(d, s, 12, 23)
	ls := NewLaunchScratch(s)

	t.Run("ties", func(t *testing.T) {
		eq := dl.Clone()
		for i := range eq.Rise {
			eq.Rise[i], eq.Fall[i] = 0.05, 0.05
		}
		tm := NewTiming(s, eq, nil)
		ties := 0
		for _, c := range cases {
			_, toggles := diffLaunchAt(t, "equal delays", tm, ls, c, 20)
			for i := 1; i < len(toggles); i++ {
				if toggles[i].t == toggles[i-1].t {
					ties++
				}
			}
		}
		if ties == 0 {
			t.Fatal("degenerate test: no two toggles share a time")
		}
	})

	t.Run("horizon", func(t *testing.T) {
		tm := NewTiming(s, dl, nil)
		cut := 0
		for k, c := range cases {
			res, _ := diffLaunchAt(t, "short period", tm, ls, c, 1)
			if res.Suppressed > 0 {
				cut++
			}
			diffLaunchAt(t, "after a cut launch", tm, ls, cases[(k+1)%len(cases)], 20)
		}
		if cut == 0 {
			t.Fatal("degenerate test: the horizon cut no launch")
		}
	})

	t.Run("long period", func(t *testing.T) {
		tm := NewTiming(s, dl, nil)
		for _, c := range cases[:4] {
			diffLaunchAt(t, "long period", tm, ls, c, 1e6)
			if ls.q.last != maxBuckets-1 || len(ls.q.head) > maxBuckets {
				t.Fatalf("last bucket %d of %d heads, cap %d", ls.q.last, len(ls.q.head), maxBuckets)
			}
		}
	})

	t.Run("zero arrivals", func(t *testing.T) {
		tm := NewTiming(s, dl, make(arrivals, d.NumInsts()))
		atZero := 0
		for _, c := range cases {
			_, toggles := diffLaunchAt(t, "zero arrivals", tm, ls, c, 20)
			for _, tg := range toggles {
				if tg.t == 0 {
					atZero++
				}
			}
		}
		if atZero < 2 {
			t.Fatal("degenerate test: no launch-edge toggles tie at time zero")
		}
	})

	t.Run("negative arrivals", func(t *testing.T) {
		r := rand.New(rand.NewSource(29))
		clk := make(arrivals, d.NumInsts())
		for _, f := range d.Flops {
			clk[f] = 2 * r.Float64()
		}
		for k, c := range cases {
			// The last launching flop arrives early, so the others have
			// pushed their events when the launch is rejected.
			last := -1
			for i := range d.Flops {
				if c.v1[i] != c.v2[i] && c.v2[i] != logic.X {
					last = i
				}
			}
			if last < 0 {
				continue
			}
			f := d.Flops[last]
			clk[f] = -0.5
			tm := NewTiming(s, dl, clk)
			_, err := tm.LaunchInto(ls, c.v1, c.v2, c.pis, 20, nil)
			if err == nil || !strings.Contains(err.Error(), d.Inst(f).Name) {
				t.Fatalf("case %d: negative arrival of flop %s: error %v", k, d.Inst(f).Name, err)
			}
			requireRestored(t, "a rejected launch", tm, ls, c)
			clk[f] = 2 * r.Float64()
			diffLaunchAt(t, "after a rejected launch", NewTiming(s, dl, clk), ls, c, 20)
		}
	})
}

// TestLaunchIntoAllocatesNothing pins the steady state of a reused
// scratch: after one pass over a pattern stream that includes a launch
// the horizon cuts, further launches allocate nothing, queue included.
func TestLaunchIntoAllocatesNothing(t *testing.T) {
	d, s := socSim(t)
	tm := NewTiming(s, delaysFor(t, d), nil)
	cases := oracleCases(d, s, 8, 31)
	periods := make([]float64, len(cases))
	for i := range periods {
		periods[i] = 20
	}
	periods[3] = 1 // the horizon cuts this launch
	ls := NewLaunchScratch(s)
	launch := func(k int) {
		c := cases[k]
		if _, err := tm.LaunchInto(ls, c.v1, c.v2, c.pis, periods[k], nil); err != nil {
			t.Fatal(err)
		}
	}
	for k := range cases {
		launch(k)
	}
	if res, _ := tm.LaunchInto(ls, cases[3].v1, cases[3].v2, cases[3].pis, 1, nil); res.Suppressed == 0 {
		t.Fatal("degenerate test: the short period cut nothing")
	}
	k := 0
	if a := testing.AllocsPerRun(2*len(cases), func() {
		launch(k % len(cases))
		k++
	}); a != 0 {
		t.Fatalf("LaunchInto on a warm scratch: %v allocations per call", a)
	}
}

// FuzzEventQueue drives the calendar queue with push/pop sequences that
// keep the launch contract — every push at or after the last popped
// time — and checks each pop against a container/heap queue ordered by
// (t, seq). The fuzzer picks the bucket width (zero included, which the
// horizon's floor replaces), the horizon and a start time that may be
// negative. Each op is two bytes: a kind and an argument. Pushes land at
// a zero delta from the last pop (a tie), at a fine or coarse delta, or
// past the horizon; a clear drops the pending events, as a launch cut at
// the horizon does, and starts the next launch with a new width.
func FuzzEventQueue(f *testing.F) {
	f.Add(uint8(16), uint16(640), int8(0), []byte{0, 0, 2, 9, 4, 200, 1, 0, 6, 3, 1, 0, 1, 0})
	f.Add(uint8(1), uint16(80), int8(-40), []byte{2, 1, 2, 1, 0, 0, 0, 0, 1, 0, 2, 255, 7, 3, 4, 10, 1, 0})
	f.Add(uint8(0), uint16(8), int8(-1), []byte{4, 7, 4, 7, 6, 50, 1, 0, 0, 0, 1, 0, 1, 0})
	f.Add(uint8(255), uint16(65535), int8(127), []byte{2, 0, 2, 0, 2, 0, 1, 0, 2, 0, 1, 0, 1, 0})
	f.Fuzz(func(t *testing.T, wq uint8, hq uint16, start int8, ops []byte) {
		w := float64(wq) / 64
		horizon := float64(hq)/8 + 0.125
		t0 := float64(start) / 4
		var q calQueue
		var ref refQueue
		q.reset(w, horizon)
		now, seq := t0, 0
		pop := func() {
			got, want := q.pop(), heap.Pop(&ref).(event)
			if got != want {
				t.Fatalf("pop %+v, reference %+v", got, want)
			}
			now = got.t
		}
		for i := 0; i+1 < len(ops); i += 2 {
			kind, arg := ops[i]&7, float64(ops[i+1])
			var dt float64
			switch kind {
			case 1:
				if ref.Len() > 0 {
					pop()
				}
				continue
			case 7:
				q.clear()
				ref = ref[:0]
				w = arg / 64
				q.reset(w, horizon)
				now = t0
				continue
			case 0: // a tie with the last pop
			case 2, 3:
				dt = arg / 256
			case 4, 5:
				dt = arg / 4
			case 6:
				dt = horizon + arg
			}
			e := event{t: now + dt, seq: seq, net: 0, val: logic.V(seq & 1)}
			seq++
			q.push(e)
			heap.Push(&ref, e)
			if q.n != ref.Len() {
				t.Fatalf("%d pending, reference %d", q.n, ref.Len())
			}
		}
		for ref.Len() > 0 {
			pop()
		}
		if q.n != 0 {
			t.Fatalf("%d pending after the reference drained", q.n)
		}
	})
}
