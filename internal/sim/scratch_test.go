package sim

import (
	"math/rand"
	"sync"
	"testing"

	"scap/internal/logic"
	"scap/internal/netlist"
)

// toggleRec is one callback observation; the equivalence tests compare
// the full stream, since power accounting is order-sensitive in float.
type toggleRec struct {
	inst   netlist.InstID
	t      float64
	rising bool
}

// launchCase is one randomized launch: a LOC-style (v1, v2, pis) triple.
type launchCase struct {
	v1, v2, pis []logic.V
}

// randomCases builds n launches that mimic the profiling workload: a
// random starting state, then each case flips only a few flops/PIs (the
// low-activity structure of fill-0 patterns), with occasional X launch
// values and occasional exact repeats (the skipped settle).
func randomCases(d *netlist.Design, s *Simulator, n int, seed int64) []launchCase {
	r := rand.New(rand.NewSource(seed))
	v1 := make([]logic.V, len(d.Flops))
	pis := make([]logic.V, len(d.PIs))
	for i := range v1 {
		v1[i] = logic.FromBool(r.Intn(2) == 1)
	}
	for i := range pis {
		pis[i] = logic.FromBool(r.Intn(2) == 1)
	}
	cases := make([]launchCase, 0, n)
	for k := 0; k < n; k++ {
		if k > 0 && r.Intn(4) == 0 {
			// Exact repeat of the previous pattern.
			cases = append(cases, cases[k-1])
			continue
		}
		if k > 0 {
			prev := cases[k-1]
			copy(v1, prev.v1)
			copy(pis, prev.pis)
			for f := 0; f < 1+r.Intn(4); f++ {
				v1[r.Intn(len(v1))] ^= 1 // Zero <-> One
			}
			if len(pis) > 0 && r.Intn(2) == 0 {
				pis[r.Intn(len(pis))] ^= 1
			}
		}
		// LOC: v2 captures the settled response of v1.
		nets := s.NewNets()
		s.SetPIs(nets, pis)
		s.ApplyState(nets, v1)
		s.Propagate(nets)
		v2 := s.CaptureState(nets)
		if r.Intn(5) == 0 {
			v2[r.Intn(len(v2))] = logic.X
		}
		c := launchCase{
			v1:  append([]logic.V(nil), v1...),
			v2:  v2,
			pis: append([]logic.V(nil), pis...),
		}
		cases = append(cases, c)
	}
	return cases
}

// snapshotResult deep-copies a scratch-owned Result so it survives the
// next launch on the same scratch.
func snapshotResult(res *Result) *Result {
	out := *res
	out.EndpointArrival = append([]float64(nil), res.EndpointArrival...)
	out.EndpointActive = append([]bool(nil), res.EndpointActive...)
	out.Nets = append([]logic.V(nil), res.Nets...)
	return &out
}

// requireIdentical asserts bit-identical Results: every scalar, both
// endpoint arrays and the full settled net vector.
func requireIdentical(t *testing.T, tag string, got, want *Result) {
	t.Helper()
	if got.Toggles != want.Toggles || got.Suppressed != want.Suppressed {
		t.Fatalf("%s: toggles/suppressed %d/%d, want %d/%d",
			tag, got.Toggles, got.Suppressed, want.Toggles, want.Suppressed)
	}
	if got.FirstEvent != want.FirstEvent || got.LastEvent != want.LastEvent || got.STW != want.STW {
		t.Fatalf("%s: first/last/STW %v/%v/%v, want %v/%v/%v",
			tag, got.FirstEvent, got.LastEvent, got.STW,
			want.FirstEvent, want.LastEvent, want.STW)
	}
	for i := range want.EndpointArrival {
		if got.EndpointArrival[i] != want.EndpointArrival[i] ||
			got.EndpointActive[i] != want.EndpointActive[i] {
			t.Fatalf("%s: endpoint %d arrival %v/%v, want %v/%v",
				tag, i, got.EndpointArrival[i], got.EndpointActive[i],
				want.EndpointArrival[i], want.EndpointActive[i])
		}
	}
	for i := range want.Nets {
		if got.Nets[i] != want.Nets[i] {
			t.Fatalf("%s: net %d = %v, want %v", tag, i, got.Nets[i], want.Nets[i])
		}
	}
}

// TestLaunchIntoMatchesFreshLaunch is the equivalence property test:
// over a randomized low-activity pattern sequence, a single reused
// scratch must reproduce the fresh-allocation path bit-identically —
// Result fields, endpoint arrays, final nets AND the toggle-callback
// stream (order included, since downstream float accumulation is
// order-sensitive).
func TestLaunchIntoMatchesFreshLaunch(t *testing.T) {
	d, s := socSim(t)
	dl := delaysFor(t, d)
	tm := NewTiming(s, dl, nil)
	cases := randomCases(d, s, 40, 7)

	ls := NewLaunchScratch(s)
	var freshTog, reuseTog []toggleRec
	record := func(dst *[]toggleRec) ToggleFn {
		return func(inst netlist.InstID, tt float64, rising bool) {
			*dst = append(*dst, toggleRec{inst, tt, rising})
		}
	}
	for k, c := range cases {
		freshTog, reuseTog = freshTog[:0], reuseTog[:0]
		want, err := tm.LaunchInto(nil, c.v1, c.v2, c.pis, 20, record(&freshTog))
		if err != nil {
			t.Fatal(err)
		}
		got, err := tm.LaunchInto(ls, c.v1, c.v2, c.pis, 20, record(&reuseTog))
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, "case", got, want)
		if len(freshTog) != len(reuseTog) {
			t.Fatalf("case %d: toggle stream %d vs %d", k, len(reuseTog), len(freshTog))
		}
		for i := range freshTog {
			if freshTog[i] != reuseTog[i] {
				t.Fatalf("case %d: toggle %d = %+v, want %+v", k, i, reuseTog[i], freshTog[i])
			}
		}
	}
}

// TestLaunchIntoWorkerEquivalence shards the same case list across
// several goroutine counts, each worker owning a private scratch, and
// requires bit-identical results for every partition — the parallel
// profiling pipeline's determinism contract. Run it under -race to
// prove scratches share nothing.
func TestLaunchIntoWorkerEquivalence(t *testing.T) {
	d, s := socSim(t)
	dl := delaysFor(t, d)
	tm := NewTiming(s, dl, nil)
	cases := randomCases(d, s, 24, 13)

	want := make([]*Result, len(cases))
	for i, c := range cases {
		res, err := tm.LaunchInto(nil, c.v1, c.v2, c.pis, 20, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	for _, workers := range []int{1, 2, 4, 8} {
		got := make([]*Result, len(cases))
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				ls := NewLaunchScratch(s)
				for i := w; i < len(cases); i += workers {
					c := cases[i]
					res, err := tm.LaunchInto(ls, c.v1, c.v2, c.pis, 20, nil)
					if err != nil {
						t.Error(err)
						return
					}
					got[i] = snapshotResult(res)
				}
			}(w)
		}
		wg.Wait()
		if t.Failed() {
			t.Fatal("worker errors")
		}
		for i := range cases {
			requireIdentical(t, "workers", got[i], want[i])
		}
	}
}

// TestLaunchIntoSharedAcrossTimings re-simulates the same pattern with
// scaled delays on one shared scratch: the settled baseline is delay-
// independent, so the cached settle may serve a different Timing — and the
// results must still match that Timing's fresh path exactly.
func TestLaunchIntoSharedAcrossTimings(t *testing.T) {
	d, s := socSim(t)
	dl := delaysFor(t, d)
	scaled := dl.Clone()
	for i := range scaled.Rise {
		scaled.Rise[i] *= 1.25
		scaled.Fall[i] *= 1.25
	}
	nom := NewTiming(s, dl, nil)
	der := NewTiming(s, scaled, nil)
	c := randomCases(d, s, 1, 29)[0]

	ls := NewLaunchScratch(s)
	if _, err := nom.LaunchInto(ls, c.v1, c.v2, c.pis, 20, nil); err != nil {
		t.Fatal(err)
	}
	got, err := der.LaunchInto(ls, c.v1, c.v2, c.pis, 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := der.LaunchInto(nil, c.v1, c.v2, c.pis, 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "cross-timing", got, want)
}

// TestSettleBaselineMatchesPropagate checks the settle on one reused
// scratch against a fresh zero-delay Propagate across a mutation chain,
// and that
// LaunchInto right after SettleBaseline (the LaunchStateInto pairing)
// still agrees with the fresh path.
func TestSettleBaselineMatchesPropagate(t *testing.T) {
	d, s := socSim(t)
	dl := delaysFor(t, d)
	tm := NewTiming(s, dl, nil)
	cases := randomCases(d, s, 20, 41)
	ls := NewLaunchScratch(s)
	for k, c := range cases {
		nets, err := ls.SettleBaseline(c.v1, c.pis)
		if err != nil {
			t.Fatal(err)
		}
		want := s.NewNets()
		s.SetPIs(want, c.pis)
		s.ApplyState(want, c.v1)
		s.Propagate(want)
		for i := range want {
			if nets[i] != want[i] {
				t.Fatalf("case %d: settled net %d = %v, oracle %v", k, i, nets[i], want[i])
			}
		}
		got, err := tm.LaunchInto(ls, c.v1, c.v2, c.pis, 20, nil)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := tm.LaunchInto(nil, c.v1, c.v2, c.pis, 20, nil)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, "settle+launch", got, fresh)
	}
}

// TestFirstEventSentinel pins the -1 no-events sentinel: a quiet launch
// reports -1, while a genuine zero-skew transition at t=0 reports 0 —
// the ambiguity the old zero-initialized field could not express.
func TestFirstEventSentinel(t *testing.T) {
	d, s := chain(t)
	dl := delaysFor(t, d)
	tm := NewTiming(s, dl, nil)
	// v1 == v2: no launch edge, no events.
	quiet, err := tm.LaunchInto(nil, []logic.V{logic.Zero, logic.One}, []logic.V{logic.Zero, logic.One}, nil, 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	if quiet.Toggles != 0 || quiet.FirstEvent != -1 {
		t.Fatalf("quiet launch: %d toggles, FirstEvent %v, want 0 and -1",
			quiet.Toggles, quiet.FirstEvent)
	}
	// Ideal (zero-skew) clock: the flop output transitions exactly at t=0.
	hot, err := tm.LaunchInto(nil, []logic.V{logic.Zero, logic.One}, []logic.V{logic.One, logic.One}, nil, 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hot.Toggles == 0 || hot.FirstEvent != 0 {
		t.Fatalf("zero-skew launch: %d toggles, FirstEvent %v, want >0 and 0",
			hot.Toggles, hot.FirstEvent)
	}
	_ = d
}

// TestLaunchRejectsDegenerateConfig covers the input validation: a
// non-positive period and a sub-1 event cap must error out instead of
// silently simulating a degenerate horizon.
func TestLaunchRejectsDegenerateConfig(t *testing.T) {
	d, s := chain(t)
	dl := delaysFor(t, d)
	v1 := []logic.V{logic.Zero, logic.One}
	v2 := []logic.V{logic.One, logic.One}
	tm := NewTiming(s, dl, nil)
	for _, period := range []float64{0, -5} {
		if _, err := tm.LaunchInto(nil, v1, v2, nil, period, nil); err == nil {
			t.Fatalf("period %v accepted", period)
		}
	}
	tm.MaxEventsPerNet = 0
	if _, err := tm.LaunchInto(nil, v1, v2, nil, 20, nil); err == nil {
		t.Fatal("MaxEventsPerNet 0 accepted")
	}
	tm.MaxEventsPerNet = -3
	if _, err := tm.LaunchInto(nil, v1, v2, nil, 20, nil); err == nil {
		t.Fatal("negative MaxEventsPerNet accepted")
	}
	_ = d
}

// TestLaunchIntoRejectsForeignScratch: a scratch is bound to one
// Simulator's topology for life.
func TestLaunchIntoRejectsForeignScratch(t *testing.T) {
	d, s := chain(t)
	dl := delaysFor(t, d)
	tm := NewTiming(s, dl, nil)
	_, other := socSim(t)
	ls := NewLaunchScratch(other)
	_, err := tm.LaunchInto(ls, []logic.V{logic.Zero, logic.One}, []logic.V{logic.One, logic.One}, nil, 20, nil)
	if err == nil {
		t.Fatal("foreign scratch accepted")
	}
	_ = d
}
