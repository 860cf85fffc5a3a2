package atpg

import (
	"testing"

	"scap/internal/fault"
	"scap/internal/faultsim"
	"scap/internal/logic"
	"scap/internal/soc"
)

// TestDetectedByRedetects re-grades whole runs by fault simulation: every
// fault a run marks Detected must be detected again by the pattern its
// DetectedBy names. Unlike TestEveryPatternDetectsItsTarget this covers
// every way a fault gets marked: as a pattern's target, as a compaction
// secondary proven under the target's base cube, and as a collateral
// detection of the batch fault drop.
func TestDetectedByRedetects(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"random_compacted", Options{Dom: 0, Fill: FillRandom, Seed: 3}},
		{"LOS", Options{Dom: 0, Mode: LOS, Fill: FillRandom, Seed: 6}},
		{"blocks_fill0", Options{Dom: 0, Fill: Fill0, Seed: 4, Blocks: []int{soc.B1, soc.B2}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 96)
			res, err := Run(r.fs, r.l, r.sc, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			// Group the detected faults by the pattern credited with them,
			// and tally how each was marked.
			byPat := make([][]int, len(res.Patterns))
			isSecondary := map[int]bool{}
			for i := range res.Patterns {
				for _, fj := range res.Patterns[i].Secondaries {
					isSecondary[fj] = true
				}
			}
			var targets, secondaries, collateral int
			for fi, st := range r.l.Status {
				if st != fault.Detected {
					continue
				}
				p := r.l.DetectedBy[fi]
				if p < 0 || p >= len(res.Patterns) {
					t.Fatalf("fault %s: DetectedBy %d outside the %d patterns",
						r.l.String(fi), p, len(res.Patterns))
				}
				byPat[p] = append(byPat[p], fi)
				switch {
				case res.Patterns[p].Target == fi:
					targets++
				case isSecondary[fi]:
					secondaries++
				default:
					collateral++
				}
			}
			t.Logf("%d patterns re-grade %d targets, %d secondaries, %d collateral detections",
				len(res.Patterns), targets, secondaries, collateral)
			if targets == 0 || secondaries == 0 || collateral == 0 {
				t.Fatal("run does not exercise every way a fault is marked detected")
			}

			src := shiftSources(r.d, r.sc)
			var v1W, piW []logic.Word
			var v1s, pis [][]logic.V
			for base := 0; base < len(res.Patterns); base += 64 {
				hi := min(base+64, len(res.Patterns))
				v1s, pis = v1s[:0], pis[:0]
				for _, p := range res.Patterns[base:hi] {
					v1s = append(v1s, p.V1)
					pis = append(pis, p.PIs)
				}
				v1W = logic.PackSlots(v1W, v1s)
				piW = logic.PackSlots(piW, pis)
				valid := logic.ValidMask(hi - base)
				var b *faultsim.Batch
				if tc.opts.Mode == LOS {
					b = r.fs.GoodSimShiftInto(new(faultsim.Batch), v1W, piW, tc.opts.Dom, valid, src)
				} else {
					b = r.fs.GoodSim(v1W, piW, tc.opts.Dom, valid)
				}
				for p := base; p < hi; p++ {
					for _, fi := range byPat[p] {
						if r.fs.Detect(b, &r.l.Faults[fi])>>uint(p-base)&1 == 0 {
							t.Errorf("fault %s: pattern %d (its DetectedBy) does not detect it",
								r.l.String(fi), p)
						}
					}
				}
			}
		})
	}
}
