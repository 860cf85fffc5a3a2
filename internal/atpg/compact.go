package atpg

import (
	"fmt"
	"math/bits"

	"scap/internal/fault"
	"scap/internal/faultsim"
	"scap/internal/logic"
)

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

	var v1, pis []logic.Word
	var b faultsim.Batch
	slotV1 := make([][]logic.V, 0, 64)
	slotPI := make([][]logic.V, 0, 64)
	dets := make([]uint64, len(subset))
	for hi := len(pats); hi > 0; hi -= 64 {
		lo := hi - 64
		if lo < 0 {
			lo = 0
		}
		chunk := pats[lo:hi]
		slotV1, slotPI = slotV1[:0], slotPI[:0]
		for s := range chunk {
			slotV1 = append(slotV1, chunk[s].V1)
			slotPI = append(slotPI, chunk[s].PIs)
		}
		v1 = logic.PackSlots(v1, slotV1)
		pis = logic.PackSlots(pis, slotPI)
		fs.GoodSimInto(&b, v1, pis, dom, logic.ValidMask(len(chunk)))
		// The re-simulation of the chunk fans out across fs.Workers; the
		// keep/mark merge below is serial in subset order, so the result
		// is bit-identical to the serial pass.
		fs.DetectAll(l, subset, &b, dets, true)
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
