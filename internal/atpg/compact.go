package atpg

import (
	"fmt"
	"math/bits"
	"slices"

	"scap/internal/fault"
	"scap/internal/faultsim"
	"scap/internal/logic"
)

// Packer packs up to 64 patterns into one good-machine batch. It keeps
// its slot slices, packed words and batch across calls, so a loop over
// 64-pattern chunks allocates them once. A Packer serves one goroutine.
type Packer struct {
	slotV1, slotPI [][]logic.V
	v1W, piW       []logic.Word
	batch          faultsim.Batch
}

// GoodSim simulates the good machine of pats (at most 64, launched off
// capture in domain dom) and returns the packer's batch, valid until the
// next call.
func (p *Packer) GoodSim(fs *faultsim.Sim, pats []Pattern, dom int) *faultsim.Batch {
	p.slotV1 = slices.Grow(p.slotV1[:0], len(pats))
	p.slotPI = slices.Grow(p.slotPI[:0], len(pats))
	for i := range pats {
		p.slotV1 = append(p.slotV1, pats[i].V1)
		p.slotPI = append(p.slotPI, pats[i].PIs)
	}
	p.v1W = logic.PackSlots(p.v1W, p.slotV1)
	p.piW = logic.PackSlots(p.piW, p.slotPI)
	return fs.GoodSimInto(&p.batch, p.v1W, p.piW, dom, logic.ValidMask(len(pats)))
}

// CompactReverse applies the classical reverse-order static compaction
// pass: patterns are fault-simulated from last to first, and a pattern is
// kept only if it detects at least one fault no later-kept pattern covers.
// The returned subset (in original order) preserves the set's detected-
// fault coverage exactly. The paper's related work ([17]) studies power
// supply noise during exactly this compaction loop; combined with the SCAP
// screen it lets a flow drop hot patterns whose faults are covered
// elsewhere.
//
// The fault list l must be fresh (all faults undetected); its statuses are
// updated to reflect the compacted set.
func CompactReverse(fs *faultsim.Sim, l *fault.List, pats []Pattern, dom int) ([]Pattern, error) {
	for _, st := range l.Status {
		if st == fault.Detected {
			return nil, fmt.Errorf("atpg: CompactReverse needs a fresh fault list")
		}
	}
	subset := l.InDomain(dom)
	keep := make([]bool, len(pats))

	var pk Packer
	dets := make([]uint64, len(subset))
	for hi := len(pats); hi > 0; hi -= 64 {
		lo := hi - 64
		if lo < 0 {
			lo = 0
		}
		b := pk.GoodSim(fs, pats[lo:hi], dom)
		// The re-simulation of the chunk fans out across fs.Workers; the
		// keep/mark merge below is serial in subset order, so the result
		// is bit-identical to the serial pass.
		fs.DetectAll(l, subset, b, dets, true)
		for i, fi := range subset {
			det := dets[i]
			if det == 0 || l.Status[fi] != fault.Undetected {
				continue
			}
			// Credit the fault to the latest pattern in original order:
			// the highest set slot (greedy reverse order semantics).
			slot := 63 - bits.LeadingZeros64(det)
			keep[lo+slot] = true
			l.MarkDetected(fi, lo+slot)
		}
	}

	out := make([]Pattern, 0, len(pats))
	for i := range pats {
		if keep[i] {
			out = append(out, pats[i])
		}
	}
	return out, nil
}
