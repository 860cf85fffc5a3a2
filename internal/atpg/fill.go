package atpg

import (
	"math/rand"

	"scap/internal/logic"
	"scap/internal/netlist"
	"scap/internal/scan"
)

// Fill selects the don't-care fill strategy, mirroring the TetraMAX options
// the paper evaluates: random fill (the conventional high-activity
// default), fill-0 (the paper's best low-power option), fill-1, and
// fill-adjacent (repeat the nearest earlier care bit along the scan chain).
type Fill uint8

// Fill strategies.
const (
	FillRandom Fill = iota
	Fill0
	Fill1
	FillAdjacent
	// FillBlockAware is the "more ideal scenario" the paper wishes ATPG
	// tools offered: random fill inside the blocks a run is targeting (for
	// fortuitous detection there) and fill-0 everywhere else (to keep
	// untargeted blocks quiet). Requires TargetBlocks on the filler.
	FillBlockAware
)

// String names the fill strategy.
func (f Fill) String() string {
	switch f {
	case FillRandom:
		return "random"
	case Fill0:
		return "fill0"
	case Fill1:
		return "fill1"
	case FillBlockAware:
		return "block-aware"
	default:
		return "adjacent"
	}
}

// filler expands test cubes into fully specified patterns.
type filler struct {
	d    *netlist.Design
	sc   *scan.Scan // may be nil: falls back to design flop order
	kind Fill
	rng  *rand.Rand

	// chainOrder lists flop indexes (design flop order) chain by chain in
	// shift order, for the adjacent fill.
	chainOrder [][]int

	// targetBlocks marks the blocks that get random fill under
	// FillBlockAware; everything else fills with 0.
	targetBlocks blockSet
}

func newFiller(d *netlist.Design, sc *scan.Scan, kind Fill, seed int64) *filler {
	f := &filler{d: d, sc: sc, kind: kind, rng: rand.New(rand.NewSource(seed))}
	idx := make(map[netlist.InstID]int, len(d.Flops))
	for i, fl := range d.Flops {
		idx[fl] = i
	}
	if sc != nil {
		for _, c := range sc.Chains {
			order := make([]int, len(c.Flops))
			for k, fl := range c.Flops {
				order[k] = idx[fl]
			}
			f.chainOrder = append(f.chainOrder, order)
		}
	} else {
		order := make([]int, len(d.Flops))
		for i := range order {
			order[i] = i
		}
		f.chainOrder = [][]int{order}
	}
	return f
}

func (f *filler) fillValue() logic.V {
	switch f.kind {
	case Fill0:
		return logic.Zero
	case Fill1:
		return logic.One
	case FillRandom:
		return logic.FromBool(f.rng.Intn(2) == 1)
	default:
		return logic.Zero
	}
}

// Expand turns a cube into a fully specified pattern: a per-flop V1 vector
// and a per-PI vector. Scan-enable is forced to 0 (capture mode) and scan
// inputs to 0.
func (f *filler) Expand(c Cube) (v1 []logic.V, pis []logic.V) {
	d := f.d
	v1 = make([]logic.V, len(d.Flops))
	for i := range v1 {
		v1[i] = logic.X
	}
	for i, v := range c.State {
		v1[i] = v
	}
	if f.kind == FillBlockAware {
		for i := range v1 {
			if v1[i] != logic.X {
				continue
			}
			if f.targetBlocks.has(d.Inst(d.Flops[i]).Block) {
				v1[i] = logic.FromBool(f.rng.Intn(2) == 1)
			} else {
				v1[i] = logic.Zero
			}
		}
	} else if f.kind == FillAdjacent {
		for _, order := range f.chainOrder {
			// Forward pass carries the previous care bit; a leading run of
			// X takes the first care bit found (or 0 when none).
			carry := logic.X
			for _, fi := range order {
				if v1[fi] != logic.X {
					carry = v1[fi]
				} else if carry != logic.X {
					v1[fi] = carry
				}
			}
			carry = logic.X
			for k := len(order) - 1; k >= 0; k-- {
				fi := order[k]
				if v1[fi] != logic.X {
					carry = v1[fi]
				} else if carry != logic.X {
					v1[fi] = carry
				}
			}
			for _, fi := range order {
				if v1[fi] == logic.X {
					v1[fi] = logic.Zero
				}
			}
		}
	} else {
		for i := range v1 {
			if v1[i] == logic.X {
				v1[i] = f.fillValue()
			}
		}
	}

	pis = make([]logic.V, len(d.PIs))
	for i := range pis {
		pis[i] = logic.X
	}
	for i, v := range c.PIs {
		pis[i] = v
	}
	if f.sc != nil {
		pis[d.Nets[f.sc.SE].PI] = logic.Zero
		for _, si := range f.sc.SIs {
			if pis[d.Nets[si].PI] == logic.X {
				pis[d.Nets[si].PI] = logic.Zero
			}
		}
	}
	for i := range pis {
		if pis[i] == logic.X {
			if f.kind == FillRandom {
				pis[i] = logic.FromBool(f.rng.Intn(2) == 1)
			} else {
				pis[i] = f.fillValue()
			}
		}
	}
	return v1, pis
}
