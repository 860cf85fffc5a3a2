// Package soc generates the synthetic system-on-chip used throughout the
// reproduction. It stands in for the paper's proprietary TI "Turbo-Eagle"
// dual-processor SOC: six floorplan blocks B1..B6 stitched by bus-like
// cross-block nets, six clock domains with the paper's scan-flop split
// (Table 2), a handful of negative-edge flops, and combinational clouds
// deep enough that sensitized path delays land near half the 20 ns test
// clock period, matching the paper's switching-time-frame observations.
//
// Everything is deterministic for a given Config (seeded math/rand), and
// the whole design scales down by an integer factor so the full experiment
// suite runs quickly at small scale while preserving all structural ratios.
package soc

import "fmt"

// NumBlocks is the number of floorplan blocks, B1..B6 (Figure 1).
const NumBlocks = 6

// Block indices, matching the paper's names.
const (
	B1 = iota
	B2
	B3
	B4
	B5
	B6
)

// DomainSpec describes one clock domain at full (paper) scale.
type DomainSpec struct {
	Name    string
	FreqMHz float64
	// FullFlops is the flop count at scale 1 (the paper's design).
	FullFlops int
	// BlockShare distributes the domain's flops over blocks; zero entries
	// mean the domain has no flops in that block. Shares are normalized.
	BlockShare [NumBlocks]float64
}

// Config controls the generator.
type Config struct {
	Seed int64

	// Scale divides every full-scale flop count; 1 reproduces the paper's
	// ~23 K scan flops, 8 (the default) yields ~2.9 K.
	Scale int

	// GatesPerFlop sets combinational cloud size relative to flop count.
	GatesPerFlop float64

	// Depth is the target combinational depth of each cloud.
	Depth int

	// CrossFrac is the fraction of gate inputs sourced from another block of
	// the same clock domain (the AMBA-bus stand-in).
	CrossFrac float64

	// NumPIs / NumPOs are chip-level pin counts (PIs are held constant
	// during test, POs are unmeasured, per the paper).
	NumPIs, NumPOs int

	// NumBusEnables is the number of bus-enable pins gating cross-block
	// imports (0 leaves the bus ungated).
	NumBusEnables int

	// NegEdgeFlops is the number of negative-edge scan flops at full scale
	// (the paper has 22, placed on a separate chain).
	NegEdgeFlops int

	// TestPeriodNs is the launch-to-capture test clock period used by the
	// at-speed experiments (the paper's analyses use 20 ns).
	TestPeriodNs float64

	// QuietZeroBias is the fraction of flops whose D input is chosen from
	// nets that evaluate to 0 under the all-zero state, making the all-0
	// scan state quasi-quiescent. Real designs behave this way around
	// their reset state; it is the property the paper's fill-0 strategy
	// exploits to keep untargeted blocks quiet during launch-off-capture.
	QuietZeroBias float64

	// HoldFrac is the fraction of flops guarded by a hold mux
	// (D' = en ? D : Q) — the synthesis image of clock gating / datapath
	// enables. Enables evaluate to 0 in the all-zero state, so fill-0
	// patterns update only the logic they deliberately drive, while random
	// fill activates roughly half the enables. This localization is what
	// keeps real blocks' per-pattern switching a small fraction of the
	// block even when patterns carry care bits.
	HoldFrac float64

	// Domains lists all clock domains at full scale.
	Domains []DomainSpec
}

// DefaultConfig reproduces the paper's design characteristics (Tables 1–2)
// at the given scale divisor.
func DefaultConfig(scale int) Config {
	return Config{
		Seed:          1,
		Scale:         scale,
		GatesPerFlop:  4.0,
		Depth:         26,
		CrossFrac:     0.04,
		NumPIs:        96,
		NumPOs:        64,
		NumBusEnables: 8,
		NegEdgeFlops:  22,
		TestPeriodNs:  20,
		QuietZeroBias: 0.97,
		HoldFrac:      0.9,
		Domains: []DomainSpec{
			// clka is the dominant domain: ~18 K flops spanning B1..B6, with
			// B5 (the central hot block) holding the largest share.
			{Name: "clka", FreqMHz: 100, FullFlops: 17797,
				BlockShare: [NumBlocks]float64{0.08, 0.10, 0.12, 0.10, 0.45, 0.15}},
			{Name: "clkb", FreqMHz: 66, FullFlops: 1100,
				BlockShare: [NumBlocks]float64{1, 0, 0, 0, 0, 0}},
			{Name: "clkc", FreqMHz: 48, FullFlops: 950,
				BlockShare: [NumBlocks]float64{0, 0, 1, 0, 0, 0}},
			{Name: "clkd", FreqMHz: 60, FullFlops: 1210,
				BlockShare: [NumBlocks]float64{0, 0, 0, 0, 0, 1}},
			{Name: "clke", FreqMHz: 33, FullFlops: 880,
				BlockShare: [NumBlocks]float64{0, 0, 0, 0, 0, 1}},
			{Name: "clkf", FreqMHz: 75, FullFlops: 1086,
				BlockShare: [NumBlocks]float64{0, 1, 0, 0, 0, 0}},
		},
	}
}

// Validate reports configuration problems.
func (c *Config) Validate() error {
	if c.Scale < 1 {
		return fmt.Errorf("soc: Scale must be >= 1, got %d", c.Scale)
	}
	if c.GatesPerFlop <= 0 {
		return fmt.Errorf("soc: GatesPerFlop must be positive")
	}
	if c.Depth < 2 {
		return fmt.Errorf("soc: Depth must be >= 2")
	}
	if c.CrossFrac < 0 || c.CrossFrac > 0.5 {
		return fmt.Errorf("soc: CrossFrac %v out of range [0, 0.5]", c.CrossFrac)
	}
	if len(c.Domains) == 0 {
		return fmt.Errorf("soc: no clock domains")
	}
	if c.TestPeriodNs <= 0 {
		return fmt.Errorf("soc: TestPeriodNs must be positive")
	}
	if c.QuietZeroBias < 0 || c.QuietZeroBias > 1 {
		return fmt.Errorf("soc: QuietZeroBias %v out of range [0, 1]", c.QuietZeroBias)
	}
	if c.HoldFrac < 0 || c.HoldFrac > 1 {
		return fmt.Errorf("soc: HoldFrac %v out of range [0, 1]", c.HoldFrac)
	}
	for i := range c.Domains {
		d := &c.Domains[i]
		if d.FullFlops <= 0 || d.FreqMHz <= 0 {
			return fmt.Errorf("soc: domain %s has non-positive size or frequency", d.Name)
		}
		sum := 0.0
		for _, s := range d.BlockShare {
			if s < 0 {
				return fmt.Errorf("soc: domain %s has negative block share", d.Name)
			}
			sum += s
		}
		if sum == 0 {
			return fmt.Errorf("soc: domain %s covers no blocks", d.Name)
		}
	}
	return nil
}

// BlockName returns the paper's name for block index b (B1..B6).
func BlockName(b int) string { return fmt.Sprintf("B%d", b+1) }

// Plan records, for the generated design, how flops were allocated: the
// realized per-domain, per-block counts. It backs the Table 1 / Table 2
// experiments.
type Plan struct {
	Scale        int
	TestPeriodNs float64
	Domains      []DomainPlan
}

// DomainPlan is the realized allocation of one clock domain.
type DomainPlan struct {
	Name          string
	FreqMHz       float64
	Flops         int
	FlopsPerBlock [NumBlocks]int
}

// BlocksCovered renders the blocks a domain spans in the paper's Table 2
// style, e.g. "B1 to B6" or "B3".
func (p *DomainPlan) BlocksCovered() string {
	first, last, n := -1, -1, 0
	for b, f := range p.FlopsPerBlock {
		if f > 0 {
			if first < 0 {
				first = b
			}
			last = b
			n++
		}
	}
	switch {
	case n == 0:
		return "-"
	case n == 1:
		return BlockName(first)
	case n == last-first+1:
		return BlockName(first) + " to " + BlockName(last)
	default:
		s := ""
		for b, f := range p.FlopsPerBlock {
			if f > 0 {
				if s != "" {
					s += ","
				}
				s += BlockName(b)
			}
		}
		return s
	}
}

// TotalFlops sums the realized flop count over all domains.
func (p *Plan) TotalFlops() int {
	t := 0
	for _, d := range p.Domains {
		t += d.Flops
	}
	return t
}
