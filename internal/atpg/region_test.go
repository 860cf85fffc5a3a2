package atpg

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"scap/internal/fault"
	"scap/internal/logic"
	"scap/internal/netlist"
	"scap/internal/soc"
)

// statsDelta subtracts two engine-stat snapshots field-wise.
func statsDelta(after, before genStats) genStats {
	return genStats{
		waves:        after.waves - before.waves,
		decisions:    after.decisions - before.decisions,
		backtracks:   after.backtracks - before.backtracks,
		gateEvals:    after.gateEvals - before.gateEvals,
		abortedWaves: after.abortedWaves - before.abortedWaves,
	}
}

// searchFull is generate with both region sets filled with every gate,
// so every wave of the search implies the whole design, as the engine did
// before it limited waves to the read region. The full sets are marked
// built, so the first decision does not sweep them again.
func searchFull(e *engine, f *fault.Fault) (Cube, engineResult) {
	defer e.teardown(len(e.trail))
	if !e.install(f) {
		return Cube{}, genUntestable
	}
	for p := range e.gates {
		e.reg1.add(int32(p))
		e.reg2.add(int32(p))
	}
	e.regionBuilt = true
	e.inject()
	return e.search()
}

// randomBase draws a cube over the free decision inputs, each with
// probability 1/8: a compaction base for a secondary search.
func randomBase(rng *rand.Rand, e *engine) Cube {
	c := Cube{State: map[int]logic.V{}, PIs: map[int]logic.V{}}
	for i, n := range e.d.PIs {
		if e.decidablePI[i] && rail(e.vals[n], sh1) == logic.X && rng.Intn(8) == 0 {
			c.PIs[i] = logic.V(rng.Intn(2))
		}
	}
	for i, f := range e.d.Flops {
		if rail(e.vals[e.d.Insts[f].Out], sh1) == logic.X && rng.Intn(8) == 0 {
			c.State[i] = logic.V(rng.Intn(2))
		}
	}
	return c
}

// TestRegionSearchMatchesFullWaves searches every domain-0 fault of the
// scale-96 design and every third one of scale 32, under LOC and LOS,
// every fourth on a random pinned base, twice: with the read region, and
// with both region sets filled with every gate. The scale-32 engines
// prefer blocks B1 and B2, as a block-aware run does. The two searches
// must give the same cube, disposition, decisions, backtracks, waves and
// aborted waves. Summed over all searches, the region's waves must
// evaluate at most half the gates the full waves do. The region search
// runs through generateChecked: after its inject wave and every later
// wave and undo, the frontier set must agree with the cone rescan
// (checkFrontier).
func TestRegionSearchMatchesFullWaves(t *testing.T) {
	var region, full int64
	searches, differ, checks := 0, 0, 0
	for _, sc := range []struct {
		scale, stride int
		prefer        []int
	}{{96, 1, nil}, {32, 3, []int{soc.B1, soc.B2}}} {
		r := newRig(t, sc.scale)
		faults := r.l.InDomain(0)
		var prefer blockSet
		if sc.prefer != nil {
			prefer = newBlockSet(r.d.NumBlocks, sc.prefer)
		}
		for _, mode := range []LaunchMode{LOC, LOS} {
			e, err := newEngine(r.s, runConfig(r.d, r.sc, Options{Dom: 0, Mode: mode, BacktrackLimit: 64}, prefer))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(sc.scale)<<1 | int64(mode)))
			for k := 0; k < len(faults); k += sc.stride {
				fi := faults[k]
				rest := len(e.trail)
				if k/sc.stride%4 == 3 {
					e.pin(randomBase(rng, e))
				}
				s0 := e.stats
				c1, d1 := generateChecked(e, &r.l.Faults[fi], func(after string) {
					checks++
					if err := e.checkFrontier(); err != nil {
						t.Fatalf("scale %d %v fault %s, after %s: %v", sc.scale, mode, r.l.String(fi), after, err)
					}
				})
				s1 := e.stats
				c2, d2 := searchFull(e, &r.l.Faults[fi])
				s2 := e.stats
				e.undoTo(rest)
				a, b := statsDelta(s1, s0), statsDelta(s2, s1)
				region += a.gateEvals
				full += b.gateEvals
				searches++
				if d1 != d2 || !maps.Equal(c1.State, c2.State) || !maps.Equal(c1.PIs, c2.PIs) ||
					a.waves != b.waves || a.decisions != b.decisions ||
					a.backtracks != b.backtracks || a.abortedWaves != b.abortedWaves {
					differ++
					if differ <= 5 {
						t.Errorf("scale %d %v fault %s: region gives %v %+v, full waves %v %+v",
							sc.scale, mode, r.l.String(fi), d1, a, d2, b)
					}
				}
			}
		}
	}
	t.Logf("%d searches, %d differ, %d frontier checks; the region's waves evaluate %d gates, full waves %d (%.1f %%)",
		searches, differ, checks, region, full, 100*float64(region)/float64(full))
	if differ > 0 {
		t.Fatalf("%d of %d searches differ", differ, searches)
	}
	if 2*region > full {
		t.Fatalf("the region's waves evaluate %d gates, more than half of the full waves' %d", region, full)
	}
}

// TestNoDecisionBuildsNoRegion pins random compaction bases on the
// scale-96 design, under LOC and LOS, and searches over each base the
// faults whose site value it conflicts with, as a secondary is searched
// in genOne. Such a search ends untestable before its first decision, so
// it must leave both region sets empty and the region unbuilt. As a
// control, the next faults without a conflict are searched too: each of
// their searches that decides must have built a non-empty frame-2
// region.
func TestNoDecisionBuildsNoRegion(t *testing.T) {
	r := newRig(t, 96)
	faults := r.l.InDomain(0)
	for _, mode := range []LaunchMode{LOC, LOS} {
		t.Run(mode.String(), func(t *testing.T) {
			e, err := newEngine(r.s, runConfig(r.d, r.sc, Options{Dom: 0, Mode: mode, BacktrackLimit: 64}, nil))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(13 + mode)))
			undecided, decided := 0, 0
			for b := 0; b < 20; b++ {
				rest := len(e.trail)
				e.pin(randomBase(rng, e))
				conflicts, controls := 0, 0
				for _, fi := range faults {
					f := &r.l.Faults[fi]
					pre, post := logic.Zero, logic.One // slow-to-rise: 0 -> 1
					if f.Type == fault.STF {
						pre, post = post, pre
					}
					v1, v2 := rail(e.vals[f.Net], sh1), rail(e.vals[f.Net], sh2)
					conflict := v1 != logic.X && v1 != pre || v2 != logic.X && v2 != post
					if conflict && conflicts == 8 || !conflict && controls == 8 {
						continue
					}
					mark, dec := len(e.trail), e.stats.decisions
					if !e.setupFault(f) {
						e.teardown(mark)
						continue
					}
					_, res := e.search()
					switch {
					case conflict:
						conflicts++
						undecided++
						if res != genUntestable || e.stats.decisions != dec {
							t.Fatalf("base %d fault %s: a conflicted search gives %v after %d decisions",
								b, r.l.String(fi), res, e.stats.decisions-dec)
						}
						for _, err := range []error{checkEmpty("frame-1 region", &e.reg1), checkEmpty("frame-2 region", &e.reg2)} {
							if err != nil {
								t.Fatalf("base %d fault %s: %v", b, r.l.String(fi), err)
							}
						}
						if e.regionBuilt {
							t.Fatalf("base %d fault %s: the region is marked built", b, r.l.String(fi))
						}
					case e.stats.decisions > dec:
						controls++
						decided++
						if !e.regionBuilt || e.reg2.lo > e.reg2.hi {
							t.Fatalf("base %d fault %s: a search that decided left the region unbuilt", b, r.l.String(fi))
						}
					}
					e.teardown(mark)
				}
				e.undoTo(rest)
			}
			t.Logf("%d conflicted searches built no region; %d searches that decided built one", undecided, decided)
			if undecided == 0 || decided == 0 {
				t.Fatal("degenerate test: no conflicted search, or none that decided")
			}
		})
	}
}

// refRegion rebuilds the read region of a fault at site from
// netlist.FaninCone and the transfer map (by flop instance): frame 2 is
// the fanout cone plus the gates of the fan-in cones of the site and of
// every input of a cone gate; frame 1 is the gates of the site's fan-in
// cone plus those of the fan-in cone of the transfer source of every
// flop the frame-2 walks reach.
func refRegion(d *netlist.Design, xferSrc []netlist.NetID, site netlist.NetID) (r1, r2 map[netlist.InstID]bool) {
	cone, err := fanoutConeRef(d, site)
	if err != nil {
		panic(err)
	}
	r1, r2 = map[netlist.InstID]bool{}, map[netlist.InstID]bool{}
	// walk adds the gates of n's fan-in cone to dst and returns the flops
	// that bound it.
	walk := func(dst map[netlist.InstID]bool, n netlist.NetID) (flops []netlist.InstID) {
		for _, id := range d.FaninCone(n) {
			if d.Insts[id].IsFlop() {
				flops = append(flops, id)
			} else {
				dst[id] = true
			}
		}
		return flops
	}
	walk(r1, site)
	flops := walk(r2, site)
	for _, id := range cone {
		r2[id] = true
		for _, n := range d.Insts[id].In {
			flops = append(flops, walk(r2, n)...)
		}
	}
	for _, f := range flops {
		if src := xferSrc[f]; src != netlist.NoNet {
			walk(r1, src)
		}
	}
	return r1, r2
}

// TestRegionMatchesFaninCones builds the read region of 300 random
// scale-96 faults per launch mode, reachable endpoint or not, and
// compares both sets, mapped to instances, with refRegion. The transfer
// map comes from the reference engine, which derives it from the run
// configuration on its own.
func TestRegionMatchesFaninCones(t *testing.T) {
	r := newRig(t, 96)
	for _, mode := range []LaunchMode{LOC, LOS} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := runConfig(r.d, r.sc, Options{Dom: 0, Mode: mode, BacktrackLimit: 64}, nil)
			e, err := newEngine(r.s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			xfer := newRefEngine(r.d, cfg).xferSrc
			rng := rand.New(rand.NewSource(int64(11 + mode)))
			got := func(s *posSet) map[netlist.InstID]bool {
				m := map[netlist.InstID]bool{}
				for p := range e.gates {
					if s.has(int32(p)) {
						m[e.gates[p].ID()] = true
					}
				}
				return m
			}
			sizes := [2]int{}
			for k := 0; k < 300; k++ {
				fi := rng.Intn(len(r.l.Faults))
				site := r.l.Faults[fi].Net
				e.install(&r.l.Faults[fi])
				e.buildRegion()
				want1, want2 := refRegion(r.d, xfer, site)
				for fr, pair := range [][2]map[netlist.InstID]bool{{got(&e.reg1), want1}, {got(&e.reg2), want2}} {
					if !maps.Equal(pair[0], pair[1]) {
						t.Fatalf("fault %s: frame-%d region %s", r.l.String(fi), fr+1, setDiff(r.d, pair[0], pair[1]))
					}
					sizes[fr] += len(pair[1])
				}
				e.teardown(len(e.trail))
				if err := e.checkCleared(); err != nil {
					t.Fatalf("fault %s: %v", r.l.String(fi), err)
				}
			}
			t.Logf("mean region: %.1f frame-1 gates, %.1f frame-2 gates of %d",
				float64(sizes[0])/300, float64(sizes[1])/300, len(e.gates))
			if sizes[0] == 0 || sizes[1] == 0 {
				t.Fatal("degenerate test: a frame's region is always empty")
			}
		})
	}
}

// setDiff names the instances only one of two sets holds.
func setDiff(d *netlist.Design, got, want map[netlist.InstID]bool) string {
	var extra, missing []string
	for id := range got {
		if !want[id] {
			extra = append(extra, d.Insts[id].Name)
		}
	}
	for id := range want {
		if !got[id] {
			missing = append(missing, d.Insts[id].Name)
		}
	}
	return fmt.Sprintf("has %d extra gates %v and misses %d %v", len(extra), extra, len(missing), missing)
}
