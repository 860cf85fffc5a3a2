// Package fault defines the transition delay fault (TDF) model: slow-to-rise
// and slow-to-fall faults on every net, structural equivalence collapsing
// through buffer/inverter chains, per-block fault selection (the unit the
// paper's pattern-generation procedure targets), and fault-status tracking
// for ATPG and fault simulation.
//
// Detection semantics (launch-off-capture, two vectors V1/V2):
//
//	slow-to-rise  on net n: V1 sets n=0, V2 sets n=1, and the V2-frame
//	              stuck-at-0 fault at n propagates to a captured flop;
//	slow-to-fall  on net n: V1 sets n=1, V2 sets n=0, and the V2-frame
//	              stuck-at-1 fault at n propagates to a captured flop.
package fault

import (
	"fmt"

	"scap/internal/cell"
	"scap/internal/netlist"
)

// Type is the transition polarity of a fault.
type Type uint8

// The two transition fault types.
const (
	STR Type = iota // slow-to-rise
	STF             // slow-to-fall
)

// String returns "STR" or "STF".
func (t Type) String() string {
	if t == STR {
		return "STR"
	}
	return "STF"
}

// Fault is one transition delay fault at a net.
type Fault struct {
	ID   int
	Net  netlist.NetID
	Type Type
	// Block is the floorplan block of the fault site's driver (NoBlock for
	// primary-input nets); per-block ATPG targeting filters on it.
	Block int
	// Equiv counts how many universe faults this collapsed representative
	// stands for (>= 1).
	Equiv int
}

// Status tracks the ATPG/fault-simulation disposition of a fault.
type Status uint8

// Fault dispositions.
const (
	Undetected Status = iota
	Detected
	Aborted    // ATPG gave up (backtrack limit)
	Untestable // proven untestable (no activation or no propagation)
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Undetected:
		return "undetected"
	case Detected:
		return "detected"
	case Aborted:
		return "aborted"
	default:
		return "untestable"
	}
}

// List is a collapsed fault list with status tracking.
type List struct {
	D      *netlist.Design
	Faults []Fault
	Status []Status
	// DetectedBy records the pattern index that first detected each fault
	// (-1 when undetected).
	DetectedBy []int
	// UniverseSize is the uncollapsed fault count (2 faults per net),
	// the paper's Table 1 "Transition Delay Faults" number.
	UniverseSize int
}

// Universe enumerates the full TDF universe of d (two faults per net) and
// collapses equivalences through fanout-free buffer/inverter stages. The
// returned list is deterministic.
func Universe(d *netlist.Design) *List {
	l := &List{D: d, UniverseSize: 2 * d.NumNets()}
	seen := make(map[int64]int) // (rep net, type) -> fault index
	key := func(n netlist.NetID, t Type) int64 { return int64(n)<<1 | int64(t) }

	for id := 0; id < d.NumNets(); id++ {
		for _, t := range []Type{STR, STF} {
			rn, rt := representative(d, netlist.NetID(id), t)
			if fi, ok := seen[key(rn, rt)]; ok {
				l.Faults[fi].Equiv++
				continue
			}
			block := netlist.NoBlock
			if drv := d.Nets[rn].Driver; drv != netlist.NoInst {
				block = d.Insts[drv].Block
			}
			fi := len(l.Faults)
			l.Faults = append(l.Faults, Fault{
				ID: fi, Net: rn, Type: rt, Block: block, Equiv: 1,
			})
			seen[key(rn, rt)] = fi
		}
	}
	l.Status = make([]Status, len(l.Faults))
	l.DetectedBy = make([]int, len(l.Faults))
	for i := range l.DetectedBy {
		l.DetectedBy[i] = -1
	}
	return l
}

// representative walks backward through fanout-free BUF/INV stages: a
// transition fault at the output of a single-load buffer (inverter) is
// equivalent to the same (opposite) transition at its input.
func representative(d *netlist.Design, n netlist.NetID, t Type) (netlist.NetID, Type) {
	for {
		drv := d.Nets[n].Driver
		if drv == netlist.NoInst {
			return n, t
		}
		inst := &d.Insts[drv]
		if inst.Kind != cell.Buf && inst.Kind != cell.Inv {
			return n, t
		}
		in := inst.In[0]
		if len(d.Nets[in].Loads) != 1 {
			return n, t
		}
		if inst.Kind == cell.Inv {
			t ^= 1
		}
		n = in
	}
}

// InDomain returns the indexes of faults whose site's fanout can be
// captured by flops of the given clock domain — approximated structurally
// as: the site's driver (or, for PI/flop-output sites, any load) belongs to
// the domain's combinational cloud. In this reproduction the clouds are
// domain-disjoint, so membership is decided by the nearest flop found when
// walking the fault net's load instances.
func (l *List) InDomain(dom int) []int {
	d := l.D
	var out []int
	for i := range l.Faults {
		if faultDomain(d, l.Faults[i].Net) == dom {
			out = append(out, i)
		}
	}
	return out
}

// faultDomain infers the clock domain a net belongs to: flop-driven nets
// take the flop's domain; otherwise the first flop load (direct or through
// its driver's block cloud) decides. Nets with no sequential context
// return -1.
func faultDomain(d *netlist.Design, n netlist.NetID) int {
	if drv := d.Nets[n].Driver; drv != netlist.NoInst && d.Insts[drv].IsFlop() {
		return d.Insts[drv].Domain
	}
	// Breadth-limited forward walk to the first flop load.
	frontier := []netlist.NetID{n}
	for depth := 0; depth < 64 && len(frontier) > 0; depth++ {
		var next []netlist.NetID
		for _, fn := range frontier {
			for _, ld := range d.Nets[fn].Loads {
				inst := &d.Insts[ld.Inst]
				if inst.IsFlop() {
					if ld.Pin == 0 {
						return inst.Domain
					}
					continue // scan path does not define the domain
				}
				next = append(next, inst.Out)
			}
		}
		frontier = next
	}
	return -1
}

// Counts summarizes the list's status distribution.
type Counts struct {
	Total, Detected, Undetected, Aborted, Untestable int
}

// Count tallies fault statuses over the whole list.
func (l *List) Count() Counts {
	return l.CountOf(nil)
}

// CountOf tallies statuses over a fault-index subset (nil means all).
func (l *List) CountOf(subset []int) Counts {
	var c Counts
	tally := func(i int) {
		c.Total++
		switch l.Status[i] {
		case Detected:
			c.Detected++
		case Undetected:
			c.Undetected++
		case Aborted:
			c.Aborted++
		case Untestable:
			c.Untestable++
		}
	}
	if subset == nil {
		for i := range l.Faults {
			tally(i)
		}
	} else {
		for _, i := range subset {
			tally(i)
		}
	}
	return c
}

// TestCoverage returns detected / (total - untestable), the paper's test
// coverage metric, over an optional subset.
func (c Counts) TestCoverage() float64 {
	den := c.Total - c.Untestable
	if den <= 0 {
		return 0
	}
	return float64(c.Detected) / float64(den)
}

// FaultCoverage returns detected / total.
func (c Counts) FaultCoverage() float64 {
	if c.Total == 0 {
		return 0
	}
	return float64(c.Detected) / float64(c.Total)
}

// MarkDetected transitions fault fi to Detected by pattern pat (first
// detection wins).
func (l *List) MarkDetected(fi, pat int) {
	if l.Status[fi] != Detected {
		l.Status[fi] = Detected
		l.DetectedBy[fi] = pat
	}
}

// String renders a fault as "net(STR)".
func (l *List) String(fi int) string {
	f := &l.Faults[fi]
	return fmt.Sprintf("%s(%s)", l.D.Nets[f.Net].Name, f.Type)
}
