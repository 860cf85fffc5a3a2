// Command irdrop runs the power-grid analyses: the vector-less statistical
// analysis (Table 3) and, optionally, the dynamic per-pattern analysis with
// IR-drop heatmaps and the delay-scaled re-simulation (Figures 3 and 7).
//
// Usage:
//
//	irdrop [-scale N] [-dynamic] [-all] [-mc T] [-pattern P] [-model CAP|SCAP] [-map] [-workers W]
//	       [-report F.json] [-metrics-addr :6060] [-trace F.json] [-snapshot-interval D]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"scap/internal/core"
	"scap/internal/ftas"
	"scap/internal/obs"
	"scap/internal/parallel"
	"scap/internal/soc"
	"scap/internal/textplot"
)

func main() {
	scale := flag.Int("scale", 8, "design scale divisor")
	dynamic := flag.Bool("dynamic", false, "run the dynamic per-pattern analysis too")
	all := flag.Bool("all", false, "batch-solve IR drop for every pattern of the flow (worker pool)")
	mc := flag.Int("mc", 0, "Monte-Carlo statistical trials (0 = off)")
	pattern := flag.Int("pattern", -1, "conventional-flow pattern to analyze (-1 = hottest)")
	modelName := flag.String("model", "SCAP", "power model for the dynamic analysis: CAP | SCAP")
	showMap := flag.Bool("map", false, "render the VDD drop heatmap")
	doFTAS := flag.Bool("ftas", false, "run the faster-than-at-speed overkill sweep")
	workers := flag.Int("workers", 0, "analysis workers (0 = all cores, 1 = serial)")
	obsFlags := obs.RegisterFlags()
	flag.Parse()

	die(parallel.ValidateWorkers(*workers))
	die(obsFlags.Setup())

	model := core.ModelSCAP
	if *modelName == "CAP" {
		model = core.ModelCAP
	} else if *modelName != "SCAP" {
		fmt.Fprintln(os.Stderr, "irdrop: unknown model", *modelName)
		os.Exit(2)
	}

	t0 := time.Now()
	cfg := core.DefaultConfig(*scale)
	cfg.Workers = *workers
	sys, err := core.Build(cfg)
	die(err)
	// irdrop returns early from several analysis tiers; the deferred finish
	// emits the report/summary on every successful path.
	defer func() { die(obsFlags.Finish(os.Stdout, "irdrop", sys.Cfg)) }()
	stat, err := sys.Statistical()
	die(err)
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
		die(err)
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
	die(err)
	prof, err := sys.ProfilePatterns(fr)
	die(err)

	if *all {
		t1 := time.Now()
		sums, err := sys.DynamicIRDropAll(fr, model)
		die(err)
		nb := sys.D.NumBlocks
		worstP := 0
		for i := range sums {
			if sums[i].WorstVDD[nb] > sums[worstP].WorstVDD[nb] {
				worstP = i
			}
		}
		fmt.Printf("\nbatched %v-model analysis: %d patterns solved in %v\n",
			model, len(sums), time.Since(t1).Round(time.Millisecond))
		fmt.Printf("  worst pattern #%d: VDD %.3f V, VSS %.3f V (STW %.2f ns)\n",
			worstP, sums[worstP].WorstVDD[nb], sums[worstP].WorstVSS[nb], sums[worstP].STW)
	}
	if !*dynamic {
		return
	}
	pick := *pattern
	if pick < 0 {
		for i := range prof {
			if pick < 0 || prof[i].BlockSCAPVdd[soc.B5] > prof[pick].BlockSCAPVdd[soc.B5] {
				pick = i
			}
		}
	}
	if pick >= len(fr.Patterns) {
		fmt.Fprintf(os.Stderr, "irdrop: pattern %d out of range (have %d)\n", pick, len(fr.Patterns))
		os.Exit(2)
	}
	dyn, err := sys.DynamicIRDrop(&fr.Patterns[pick], 0, model)
	die(err)
	nb := sys.D.NumBlocks
	fmt.Printf("\ndynamic %v-model analysis of pattern #%d (STW %.2f ns):\n", model, pick, dyn.STW)
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
	imp, _, err := sys.DelayImpact(&fr.Patterns[pick], 0)
	die(err)
	fmt.Printf("\nIR-drop-aware re-simulation: %d endpoints slowed, %d sped up, max slowdown %.1f%%\n",
		imp.Slowed, imp.Sped, 100*imp.MaxSlowdownFrac)

	if *doFTAS {
		res, err := ftas.Sweep(imp, sys.Period/4, sys.Period, sys.Period/20, 0)
		die(err)
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

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "irdrop:", err)
		os.Exit(1)
	}
}
