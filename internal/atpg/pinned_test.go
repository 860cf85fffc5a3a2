package atpg

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"scap/internal/soc"
)

// TestSearchOutputPinned pins what the PODEM search produces, not only
// that it is deterministic: a SHA-256 over every pattern's bits, target and
// secondaries, every fault's status and DetectedBy, and the decision and
// backtrack counts. A change that only makes the engine cheaper must leave
// the digests unchanged; one that alters the search order, or the cone
// order the D-frontier scans, must re-record them and say why. The wave
// ceilings are the counts before the engine stopped re-implying scan
// enable and the compaction base per fault; waves may only fall.
func TestSearchOutputPinned(t *testing.T) {
	for _, tc := range []struct {
		name     string
		opts     Options
		digest   string
		maxWaves int64
	}{
		{"random_compacted", Options{Dom: 0, Fill: FillRandom, Seed: 3},
			"b1ade4d3af547fc4032e77c1024eca6abd71bcd004df723da886ff620bfacf36", 58905},
		{"LOS", Options{Dom: 0, Mode: LOS, Fill: FillRandom, Seed: 6},
			"6a09ef61e4fb5c35fcc50080a52f363c52044f471b753c816e9161d9d731a8fd", 34903},
		{"blocks_fill0_budget", Options{Dom: 0, Fill: Fill0, Seed: 4,
			Blocks: []int{soc.B1, soc.B2}, CareBudget: 6},
			"87e994ac7526771f151f2df47142c8187db00a5310c8a61abb613adbadf50e62", 8677},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 96)
			res, err := Run(r.fs, r.l, r.sc, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			for i := range res.Patterns {
				p := &res.Patterns[i]
				for _, v := range p.V1 {
					h.Write([]byte{byte(v)})
				}
				for _, v := range p.PIs {
					h.Write([]byte{byte(v)})
				}
				putInt(h, int64(p.Target))
				putInt(h, int64(len(p.Secondaries)))
				for _, fj := range p.Secondaries {
					putInt(h, int64(fj))
				}
			}
			for fi, st := range r.l.Status {
				putInt(h, int64(st))
				putInt(h, int64(r.l.DetectedBy[fi]))
			}
			putInt(h, res.Gen.Decisions)
			putInt(h, res.Gen.Backtracks)
			got := hex.EncodeToString(h.Sum(nil))
			t.Logf("%d patterns, gen %+v, digest %s", len(res.Patterns), res.Gen, got)
			if got != tc.digest {
				t.Errorf("output digest %s, want %s", got, tc.digest)
			}
			if res.Gen.Waves > tc.maxWaves {
				t.Errorf("%d implication waves, want at most %d", res.Gen.Waves, tc.maxWaves)
			}
		})
	}
}

func putInt(h hash.Hash, v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	h.Write(b[:])
}
