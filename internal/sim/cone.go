package sim

import (
	"math/bits"

	"scap/internal/cell"
	"scap/internal/logic"
	"scap/internal/netlist"
)

// ConeObserver receives the flop D pins a packed fault cone reaches.
type ConeObserver interface {
	// Reach reports that the D net of flop slot (d.Flops order) now
	// carries faulty where the good machine carries good. Returning true
	// stops the sweep.
	Reach(slot int, good, faulty logic.Word) bool
}

// Cone is the packed fault-cone kernel. Run forces one net to a packed
// value over a batch's settled frame-2 good values and propagates the
// difference forward through the flat table: one sweep over the dirty
// gate positions in order, as the launch settle does, so every gate of
// the cone is evaluated once, with final inputs. Each flop D pin the
// difference reaches (a ^slot fanout entry) goes to the observer.
//
// A Cone owns mutable scratch: one per goroutine. Between runs it holds
// no state, so it may serve any batch of its Simulator.
type Cone struct {
	s *Simulator
	// good is the current run's good values; fv holds the faulty value of
	// every net in tlist, the nets the run changed (touched marks them).
	good    []logic.Word
	fv      []logic.Word
	touched []bool
	tlist   []netlist.NetID
	// dirty is the set of gates to evaluate, one bit per gate position;
	// lo and hi bound the marked positions. It is empty between runs.
	dirty  []uint64
	lo, hi int
}

// NewCone allocates a cone kernel sized for s.
func NewCone(s *Simulator) *Cone {
	nn := s.d.NumNets()
	return &Cone{
		s:       s,
		fv:      make([]logic.Word, nn),
		touched: make([]bool, nn),
		dirty:   make([]uint64, (len(s.gates)+63)/64),
	}
}

// Run forces net n to v over the good net values good (a settled
// PropagateW vector), propagates the difference and returns the number of
// gates evaluated. The sweep stops early when o.Reach returns true.
func (c *Cone) Run(good []logic.Word, n netlist.NetID, v logic.Word, o ConeObserver) int {
	c.good = good
	c.lo, c.hi = len(c.s.gates), -1
	evals := 0
	stop := c.set(n, v, o)
	w := c.lo >> 6
sweep:
	for ; !stop && w <= c.hi>>6; w++ {
		// Marks made while this word drains land at higher positions,
		// so the lowest set bit is always the next gate in order.
		for c.dirty[w] != 0 {
			b := bits.TrailingZeros64(c.dirty[w])
			c.dirty[w] &^= 1 << uint(b)
			g := &c.s.gates[w<<6|b]
			var in [4]logic.Word
			for p := range in[:g.n] {
				in[p] = c.val(g.in[p])
			}
			evals++
			out := cell.EvalWord(g.kind, in[:g.n])
			if out != c.val(g.out) && c.set(g.out, out, o) {
				break sweep
			}
		}
	}
	// A stopped sweep leaves marks from word w on; clear them.
	for ; w <= c.hi>>6; w++ {
		c.dirty[w] = 0
	}
	for _, t := range c.tlist {
		c.touched[t] = false
	}
	c.tlist = c.tlist[:0]
	return evals
}

// val is net n's value in the faulty machine.
func (c *Cone) val(n netlist.NetID) logic.Word {
	if c.touched[n] {
		return c.fv[n]
	}
	return c.good[n]
}

// set gives net n the faulty value v, reports its flop D pins and marks
// its gate loads dirty. It returns true when the observer stops the
// sweep.
func (c *Cone) set(n netlist.NetID, v logic.Word, o ConeObserver) bool {
	if !c.touched[n] {
		c.touched[n] = true
		c.tlist = append(c.tlist, n)
	}
	c.fv[n] = v
	for _, e := range c.s.loadsOf(n) {
		if e < 0 {
			if o.Reach(int(^e), c.good[n], v) {
				return true
			}
			continue
		}
		p := int(e)
		c.dirty[p>>6] |= 1 << uint(p&63)
		if p < c.lo {
			c.lo = p
		}
		if p > c.hi {
			c.hi = p
		}
	}
	return false
}
