package repro

import (
	"fmt"
	"math"
	"strings"

	"scap/internal/core"
	"scap/internal/soc"
)

// Table1 reproduces the design-characteristics table.
func (r *Runner) Table1() (string, error) {
	sys := r.Sys
	stats, err := sys.D.ComputeStats()
	if err != nil {
		return "", err
	}
	l := sys.NewFaultList()
	var b strings.Builder
	b.WriteString(header("Table 1: Design Characteristics"))
	fmt.Fprintf(&b, "scale divisor: 1/%d of the paper's design\n\n", sys.Plan.Scale)
	fmt.Fprintf(&b, "%-28s %12s %14s\n", "", "measured", "paper")
	fmt.Fprintf(&b, "%-28s %12d %14s\n", "Clock Domains", len(sys.D.Domains), "6")
	fmt.Fprintf(&b, "%-28s %12d %14s\n", "Scan Chains", len(sys.SC.Chains), "16")
	fmt.Fprintf(&b, "%-28s %12d %14s\n", "Total Scan Flops", stats.Flops, "~23K (full)")
	fmt.Fprintf(&b, "%-28s %12d %14s\n", "Negative Edge Scan Flops", stats.NegEdgeFlops, "22 (full)")
	fmt.Fprintf(&b, "%-28s %12d %14s\n", "Transition Delay Faults", l.UniverseSize, "(full-chip set)")
	fmt.Fprintf(&b, "%-28s %12d %14s\n", "  collapsed", len(l.Faults), "")
	fmt.Fprintf(&b, "%-28s %12d %14s\n", "Logic Gates", stats.Gates, "")
	fmt.Fprintf(&b, "%-28s %12d %14s\n", "Primary Inputs", stats.PIs, "")
	return b.String(), nil
}

// Table2 reproduces the clock-domain analysis table.
func (r *Runner) Table2() (string, error) {
	var b strings.Builder
	b.WriteString(header("Table 2: Clock Domain Analysis"))
	fmt.Fprintf(&b, "%-12s %12s %12s   %s\n", "Clock Domain", "#Scan Cells", "Freq [MHz]", "Blocks Covered")
	for i := range r.Sys.Plan.Domains {
		dp := &r.Sys.Plan.Domains[i]
		fmt.Fprintf(&b, "%-12s %12d %12.0f   %s\n", dp.Name, dp.Flops, dp.FreqMHz, dp.BlocksCovered())
	}
	fmt.Fprintf(&b, "\nshape check: clka dominant (paper: ~18K of ~23K flops, spans B1 to B6): %v\n",
		r.Sys.Plan.Domains[0].Flops > r.Sys.Plan.TotalFlops()/2 &&
			r.Sys.Plan.Domains[0].BlocksCovered() == "B1 to B6")
	return b.String(), nil
}

// Table3 reproduces the statistical functional IR-drop analysis.
func (r *Runner) Table3() (string, error) {
	sys, stat := r.Sys, r.Stat
	var b strings.Builder
	b.WriteString(header("Table 3: Statistical functional IR-drop analysis per block"))
	fmt.Fprintf(&b, "vector-less, %.0f%% toggle probability; Case1 window %.4g ns (full cycle), Case2 %.4g ns (half cycle)\n\n",
		100*stat.ToggleProb, stat.Case1.WindowNs, stat.Case2.WindowNs)
	fmt.Fprintf(&b, "%-6s | %-31s | %-31s\n", "", "Case1 (full cycle)", "Case2 (half cycle)")
	fmt.Fprintf(&b, "%-6s | %9s %9s %11s | %9s %9s %11s\n",
		"Block", "P_vdd mW", "P_vss mW", "drop V/V", "P_vdd mW", "P_vss mW", "drop V/V")
	row := func(name string, idx int) {
		c1, c2 := &stat.Case1, &stat.Case2
		fmt.Fprintf(&b, "%-6s | %9.2f %9.2f %5.3f/%5.3f | %9.2f %9.2f %5.3f/%5.3f\n",
			name,
			c1.Power.Blocks[idx].PowerVddMW, c1.Power.Blocks[idx].PowerVssMW,
			c1.WorstVDD[idx], c1.WorstVSS[idx],
			c2.Power.Blocks[idx].PowerVddMW, c2.Power.Blocks[idx].PowerVssMW,
			c2.WorstVDD[idx], c2.WorstVSS[idx])
	}
	for blk := 0; blk < sys.D.NumBlocks; blk++ {
		row(soc.BlockName(blk), blk)
	}
	row("Chip", sys.D.NumBlocks)

	hb := stat.HotBlock
	fmt.Fprintf(&b, "\nshape checks (paper: power doubles when window halves; B5 hottest):\n")
	fmt.Fprintf(&b, "  Case2/Case1 chip power ratio: %.2f (paper: 2.0)\n",
		stat.Case2.Power.Chip().PowerVddMW/stat.Case1.Power.Chip().PowerVddMW)
	fmt.Fprintf(&b, "  hottest block: %s (paper: B5), threshold %.2f mW (paper: 204 mW at full scale)\n",
		soc.BlockName(hb), stat.ThresholdMW[hb])
	fmt.Fprintf(&b, "  B5 Case2 worst drop: %.3f V (paper: ~0.12 V)\n", stat.Case2.WorstVDD[soc.B5])
	return b.String(), nil
}

// Table4 reproduces the CAP-vs-SCAP single-pattern comparison. The subject
// is the conventional random-fill clka pattern whose STW lies closest to
// the paper's 8.34 ns (0.42 of the 20 ns cycle).
func (r *Runner) Table4() (string, error) {
	conv, prof, err := r.Conventional()
	if err != nil {
		return "", err
	}
	want := 0.417 * r.Sys.Period
	best, bestD := -1, math.Inf(1)
	for i := range prof {
		if prof[i].Toggles == 0 {
			continue
		}
		if d := math.Abs(prof[i].STW - want); d < bestD {
			best, bestD = i, d
		}
	}
	if best < 0 {
		return "", fmt.Errorf("repro: no active pattern for Table 4")
	}
	capIR, err := r.Sys.DynamicIRDrop(&conv.Patterns[best], 0, core.ModelCAP)
	if err != nil {
		return "", err
	}
	scapIR, err := r.Sys.DynamicIRDrop(&conv.Patterns[best], 0, core.ModelSCAP)
	if err != nil {
		return "", err
	}
	nb := r.Sys.D.NumBlocks
	chipCap := capIR.Profile.Chip()
	var b strings.Builder
	b.WriteString(header("Table 4: Average dynamic power / IR-drop of one pattern, CAP vs SCAP"))
	fmt.Fprintf(&b, "pattern #%d, STW %.2f ns, clock period %.4g ns (paper: STW 8.34 ns, T 20 ns)\n\n",
		best, scapIR.STW, r.Sys.Period)
	fmt.Fprintf(&b, "%-6s | %14s %14s | %12s %12s\n", "", "P_vdd [mW]", "P_vss [mW]", "drop VDD [V]", "drop VSS [V]")
	fmt.Fprintf(&b, "%-6s | %14.2f %14.2f | %12.3f %12.3f\n", "CAP",
		chipCap.CAPVdd, chipCap.CAPVss, capIR.WorstVDD[nb], capIR.WorstVSS[nb])
	fmt.Fprintf(&b, "%-6s | %14.2f %14.2f | %12.3f %12.3f\n", "SCAP",
		chipCap.SCAPVdd, chipCap.SCAPVss, scapIR.WorstVDD[nb], scapIR.WorstVSS[nb])
	fmt.Fprintf(&b, "\nshape checks (paper: SCAP > 2x CAP; IR-drop roughly doubles):\n")
	fmt.Fprintf(&b, "  SCAP/CAP power ratio: %.2f (paper: 2.26)\n", chipCap.SCAPVdd/chipCap.CAPVdd)
	fmt.Fprintf(&b, "  SCAP/CAP VDD-drop ratio: %.2f (paper: 0.26/0.128 = 2.0)\n",
		scapIR.WorstVDD[nb]/capIR.WorstVDD[nb])
	return b.String(), nil
}
