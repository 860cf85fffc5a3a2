// Command irdrop runs the power-grid analyses: the vector-less statistical
// analysis (Table 3) and, optionally, the dynamic per-pattern analysis with
// IR-drop heatmaps and the delay-scaled re-simulation (Figures 3 and 7).
//
// Usage:
//
//	irdrop [-scale N] [-dynamic] [-all] [-mc T] [-pattern P] [-model CAP|SCAP] [-map] [-workers W]
//	       [-report F.json] [-trace F.json]
package main

import (
	"flag"
	"fmt"
	"math"
	"time"

	"scap/internal/cli"
	"scap/internal/core"
	"scap/internal/delayscale"
	"scap/internal/ftas"
	"scap/internal/soc"
	"scap/internal/textplot"
)

func main() {
	c := cli.New("irdrop", 8, "analysis workers (0 = all cores, 1 = serial)")
	dynamic := flag.Bool("dynamic", false, "run the dynamic per-pattern analysis too")
	all := flag.Bool("all", false, "batch-solve IR drop for every pattern of the flow (worker pool)")
	mc := cli.Int("mc", 0, 0, math.MaxInt, "Monte-Carlo statistical trials (0 = off)")
	pattern := cli.Int("pattern", -1, -1, math.MaxInt, "conventional-flow pattern to analyze (-1 = hottest)")
	model := cli.Choice("model", "SCAP", "power model for the dynamic analysis: CAP | SCAP",
		map[string]core.PowerModel{"CAP": core.ModelCAP, "SCAP": core.ModelSCAP})
	showMap := flag.Bool("map", false, "render the VDD drop heatmap")
	doFTAS := flag.Bool("ftas", false, "run the faster-than-at-speed overkill sweep")
	flag.Parse()

	t0 := time.Now()
	sys := c.Build()
	// irdrop returns early from several analysis tiers; the deferred finish
	// emits the report/summary on every successful path.
	defer c.Finish()
	stat, err := sys.Statistical()
	c.Check(err)
	fmt.Printf("statistical vector-less analysis (%v):\n", time.Since(t0).Round(time.Millisecond))
	fmt.Printf("%-6s %26s %26s\n", "", "Case1 (full cycle)", "Case2 (half cycle)")
	fmt.Printf("%-6s %12s %13s %12s %13s\n", "block", "P_vdd [mW]", "drop [V]", "P_vdd [mW]", "drop [V]")
	for b := 0; b <= sys.D.NumBlocks; b++ {
		name := "Chip"
		if b < sys.D.NumBlocks {
			name = soc.BlockName(b)
		}
		fmt.Printf("%-6s %12.2f %13.3f %12.2f %13.3f\n", name,
			stat.Case1.Power.Blocks[b].PowerVddMW, stat.Case1.WorstVDD[b],
			stat.Case2.Power.Blocks[b].PowerVddMW, stat.Case2.WorstVDD[b])
	}

	if *mc > 0 {
		t1 := time.Now()
		res, err := sys.MonteCarloIRDrop(*mc, sys.Cfg.Seed)
		c.Check(err)
		fmt.Printf("\nMonte-Carlo statistical analysis: %d trials, half-cycle window (%v):\n",
			res.Trials, time.Since(t1).Round(time.Millisecond))
		fmt.Printf("%-6s %10s %10s %10s\n", "block", "mean [V]", "p95 [V]", "max [V]")
		for b := 0; b <= sys.D.NumBlocks; b++ {
			name := "Chip"
			if b < sys.D.NumBlocks {
				name = soc.BlockName(b)
			}
			fmt.Printf("%-6s %10.3f %10.3f %10.3f\n", name, res.MeanVDD[b], res.P95VDD[b], res.MaxVDD[b])
		}
	}

	if !*dynamic && !*all {
		return
	}
	fr, err := sys.ConventionalFlow(0)
	c.Check(err)
	// prof is the SCAP profile the -dynamic pick reads: -all returns it
	// with the IR-drop summaries, from the same launches.
	var prof []core.PatternProfile
	if *all {
		t1 := time.Now()
		sums, err := sys.DynamicIRDropAll(fr, *model)
		c.Check(err)
		nb := sys.D.NumBlocks
		worstP := 0
		prof = make([]core.PatternProfile, len(sums))
		for i := range sums {
			if sums[i].WorstVDD[nb] > sums[worstP].WorstVDD[nb] {
				worstP = i
			}
			prof[i] = sums[i].PatternProfile
		}
		fmt.Printf("\nbatched %v-model analysis: %d patterns solved in %v\n",
			*model, len(sums), time.Since(t1).Round(time.Millisecond))
		fmt.Printf("  worst pattern #%d: VDD %.3f V, VSS %.3f V (STW %.2f ns)\n",
			worstP, sums[worstP].WorstVDD[nb], sums[worstP].WorstVSS[nb], sums[worstP].STW)
	}
	if !*dynamic {
		return
	}
	pick := *pattern
	if pick < 0 {
		if prof == nil {
			prof, err = sys.ProfilePatterns(fr)
			c.Check(err)
		}
		for i := range prof {
			if pick < 0 || prof[i].BlockSCAPVdd[soc.B5] > prof[pick].BlockSCAPVdd[soc.B5] {
				pick = i
			}
		}
	}
	if pick >= len(fr.Patterns) {
		c.Reject(fmt.Errorf("pattern %d out of range (have %d)", pick, len(fr.Patterns)))
	}
	// DelayImpact runs the SCAP-model analysis of the pattern, so with
	// that model its DynamicIR is the one to print.
	var imp *delayscale.Impact
	var dyn *core.DynamicIR
	if *model == core.ModelSCAP {
		imp, dyn, err = sys.DelayImpact(&fr.Patterns[pick], 0)
	} else {
		dyn, err = sys.DynamicIRDrop(&fr.Patterns[pick], 0, *model)
	}
	c.Check(err)
	nb := sys.D.NumBlocks
	fmt.Printf("\ndynamic %v-model analysis of pattern #%d (STW %.2f ns):\n", *model, pick, dyn.STW)
	fmt.Printf("  worst drop: VDD %.3f V, VSS %.3f V\n", dyn.WorstVDD[nb], dyn.WorstVSS[nb])
	for b := 0; b < nb; b++ {
		fmt.Printf("  %s: VDD %.3f V, VSS %.3f V\n", soc.BlockName(b), dyn.WorstVDD[b], dyn.WorstVSS[b])
	}
	if *showMap {
		tenPct := 0.1 * sys.D.Lib.VDD
		fmt.Println()
		fmt.Print(textplot.Heatmap(dyn.SolVDD.Drop, dyn.SolVDD.N, tenPct,
			fmt.Sprintf("VDD drop map ('@' beyond 10%% VDD = %.2f V)", tenPct)))
	}
	if imp == nil {
		imp, _, err = sys.DelayImpact(&fr.Patterns[pick], 0)
		c.Check(err)
	}
	fmt.Printf("\nIR-drop-aware re-simulation: %d endpoints slowed, %d sped up, max slowdown %.1f%%\n",
		imp.Slowed, imp.Sped, 100*imp.MaxSlowdownFrac)

	if *doFTAS {
		res, err := ftas.Sweep(imp, sys.Period/4, sys.Period, sys.Period/20, 0)
		c.Check(err)
		fmt.Println("\nfaster-than-at-speed sweep (overkill = good-chip fails caused by IR-drop):")
		fmt.Printf("%10s %9s %10s %10s %9s\n", "period ns", "freq MHz", "nom-fails", "drop-fails", "overkill")
		for _, p := range res.Points {
			fmt.Printf("%10.2f %9.1f %10d %10d %9d\n",
				p.PeriodNs, p.FreqMHz, p.NomViolations, p.ScaledViolations, p.Overkill)
		}
		if res.MinPeriodNoOverkillNs > 0 {
			fmt.Printf("fastest overkill-free capture: %.2f ns (%.1f MHz)\n",
				res.MinPeriodNoOverkillNs, res.MaxSafeFreqMHz)
		}
	}
}
