// Package scan implements the full-scan design-for-test substrate: it
// converts every flop to a scan flop, stitches the configured number of
// scan chains (per clock domain, with the negative-edge flops on their own
// chain exactly as the paper's design keeps its 22 negative-edge cells on a
// separate chain), orders the cells within a chain by placement to
// minimize scan wirelength, and provides a functional shift model used to
// validate chain connectivity.
package scan

import (
	"fmt"
	"sort"

	"scap/internal/logic"
	"scap/internal/netlist"
	"scap/internal/sim"
)

// Chain is one stitched scan chain.
type Chain struct {
	Index   int
	Name    string
	Domain  int
	NegEdge bool
	// Flops lists the chain's cells in shift order: Flops[0] is the cell
	// next to the scan-input pin, Flops[len-1] drives the scan output.
	Flops []netlist.InstID
}

// Scan is the result of scan insertion.
type Scan struct {
	D      *netlist.Design
	Chains []Chain

	SE  netlist.NetID   // global scan-enable net (a primary input)
	SIs []netlist.NetID // per-chain scan-in nets (primary inputs)
	SOs []netlist.NetID // per-chain scan-out nets (marked primary outputs)
}

// Config controls scan insertion.
type Config struct {
	// NumChains is the total chain budget (the paper's design uses 16).
	// One chain is reserved for negative-edge flops when any exist; the
	// rest are split across clock domains proportionally to flop count.
	NumChains int
	// OrderByPlacement serpentine-orders cells within each chain by their
	// placed location (requires placement); false keeps design order.
	OrderByPlacement bool
}

// DefaultConfig matches the paper's DFT setup.
func DefaultConfig() Config { return Config{NumChains: 16, OrderByPlacement: true} }

// Insert converts all flops of d to scan flops and stitches chains.
func Insert(d *netlist.Design, cfg Config) (*Scan, error) {
	if cfg.NumChains < 1 {
		return nil, fmt.Errorf("scan: NumChains must be >= 1")
	}
	if len(d.Flops) == 0 {
		return nil, fmt.Errorf("scan: design has no flops")
	}

	// Partition flops: negative-edge cells apart, the rest per domain.
	var neg []netlist.InstID
	perDomain := make([][]netlist.InstID, len(d.Domains))
	for _, f := range d.Flops {
		inst := d.Inst(f)
		if inst.NegEdge {
			neg = append(neg, f)
		} else {
			perDomain[inst.Domain] = append(perDomain[inst.Domain], f)
		}
	}

	budget := cfg.NumChains
	if len(neg) > 0 {
		budget--
	}
	if budget < 1 {
		budget = 1
	}
	total := len(d.Flops) - len(neg)

	sc := &Scan{D: d}
	sc.SE = d.AddPI("scan_enable")

	addChain := func(name string, domain int, negEdge bool, flops []netlist.InstID) {
		if len(flops) == 0 {
			return
		}
		if cfg.OrderByPlacement {
			serpentine(d, flops)
		}
		ci := len(sc.Chains)
		si := d.AddPI(fmt.Sprintf("si%d", ci))
		prev := si
		for _, f := range flops {
			d.ConvertToScan(f, prev, sc.SE)
			prev = d.Inst(f).Out
		}
		d.MarkPO(prev)
		sc.Chains = append(sc.Chains, Chain{
			Index: ci, Name: name, Domain: domain, NegEdge: negEdge, Flops: flops,
		})
		sc.SIs = append(sc.SIs, si)
		sc.SOs = append(sc.SOs, prev)
	}

	for dom, flops := range perDomain {
		if len(flops) == 0 {
			continue
		}
		// Chains for this domain, proportional with a floor of one.
		n := budget * len(flops) / max(total, 1)
		if n < 1 {
			n = 1
		}
		per := (len(flops) + n - 1) / n
		for c := 0; c*per < len(flops); c++ {
			lo, hi := c*per, (c+1)*per
			if hi > len(flops) {
				hi = len(flops)
			}
			addChain(fmt.Sprintf("chain_%s_%d", d.Domains[dom].Name, c), dom, false, flops[lo:hi])
		}
	}
	if len(neg) > 0 {
		addChain("chain_negedge", 0, true, neg)
	}

	if err := d.Check(); err != nil {
		return nil, fmt.Errorf("scan: post-insertion check: %w", err)
	}
	return sc, nil
}

// serpentine orders flops in row bands by Y, alternating X direction —
// the classical placement-driven scan ordering that minimizes stitch
// wirelength.
func serpentine(d *netlist.Design, flops []netlist.InstID) {
	sort.Slice(flops, func(i, j int) bool {
		a, b := d.Inst(flops[i]), d.Inst(flops[j])
		if a.Y != b.Y {
			return a.Y < b.Y
		}
		return a.X < b.X
	})
	// Band rows of ~sqrt(n) cells and reverse every other band.
	n := len(flops)
	band := 1
	for band*band < n {
		band++
	}
	for lo := 0; lo < n; lo += band {
		hi := lo + band
		if hi > n {
			hi = n
		}
		if (lo/band)%2 == 1 {
			for i, j := lo, hi-1; i < j; i, j = i+1, j-1 {
				flops[i], flops[j] = flops[j], flops[i]
			}
		}
	}
}

// MaxChainLen returns the longest chain length (the shift cycle count).
func (sc *Scan) MaxChainLen() int {
	m := 0
	for i := range sc.Chains {
		if len(sc.Chains[i].Flops) > m {
			m = len(sc.Chains[i].Flops)
		}
	}
	return m
}

// FlushTest performs the classical chain-integrity check: a known bit
// sequence is shifted through every chain with scan-enable held high, and
// each chain's scan-out stream must reproduce the scan-in stream delayed
// by exactly the chain length. It returns the first broken chain found
// (nil when all chains are intact). This is the pattern manufacturing
// applies before any fault test — a broken chain fails here immediately.
func (sc *Scan) FlushTest(s *sim.Simulator, seq []logic.V) error {
	if len(seq) == 0 {
		seq = []logic.V{logic.Zero, logic.Zero, logic.One, logic.One}
	}
	d := sc.D
	pis := make([]logic.V, len(d.PIs))
	for i := range pis {
		pis[i] = logic.Zero
	}
	pis[d.Nets[sc.SE].PI] = logic.One

	state := make([]logic.V, len(d.Flops))
	for i := range state {
		state[i] = logic.X
	}
	nets := s.NewNets()
	cycles := sc.MaxChainLen() + 2*len(seq)
	// outs[c][t] is chain c's scan-out value before shift cycle t.
	outs := make([][]logic.V, len(sc.Chains))
	for cyc := 0; cyc < cycles; cyc++ {
		bit := seq[cyc%len(seq)]
		for c := range sc.Chains {
			pis[d.Nets[sc.SIs[c]].PI] = bit
		}
		s.SetPIs(nets, pis)
		s.ApplyState(nets, state)
		s.Propagate(nets)
		for c := range sc.Chains {
			outs[c] = append(outs[c], nets[sc.SOs[c]])
		}
		state = s.CaptureState(nets)
	}
	// outs[c][t] is the scan-out observed after t shifts: it must carry the
	// bit injected at cycle t-L (cell 0 at end of cycle t-L, cell L-1 at
	// end of cycle t-1, visible during cycle t).
	for c := range sc.Chains {
		L := len(sc.Chains[c].Flops)
		for t := L; t < cycles; t++ {
			want := seq[(t-L)%len(seq)]
			if outs[c][t] != want {
				return fmt.Errorf("scan: chain %s broken: flush bit %d expected %v, got %v",
					sc.Chains[c].Name, t, want, outs[c][t])
			}
		}
	}
	return nil
}
