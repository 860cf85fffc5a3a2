// Command scap is the SCAP calculator: the reproduction of the paper's
// PLI-based flow (Figure 5). It generates (or re-derives) a pattern set,
// streams each pattern through the gate-level timing simulator, and prints
// the per-pattern CAP/SCAP profile per block — with no VCD intermediary.
//
// Usage:
//
//	scap [-scale N] [-flow conventional|new] [-block B5] [-top K] [-plot] [-workers W]
//	     [-solver factored|sparse|mg|sor|auto] [-screen F] [-report F.json] [-metrics-addr :6060]
//	     [-trace F.json] [-trace-sample N] [-snapshot-interval D]
//
// With -screen F (0 < F <= 1) the packed zero-delay pre-screen ranks all
// patterns by estimated switching in the profiled block first, and the
// exact event-driven profiler runs only on the top fraction F.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"scap/internal/core"
	"scap/internal/logic"
	"scap/internal/obs"
	"scap/internal/parallel"
	"scap/internal/power"
	"scap/internal/sim"
	"scap/internal/soc"
	"scap/internal/textplot"
)

func main() {
	scale := flag.Int("scale", 8, "design scale divisor")
	flow := flag.String("flow", "conventional", "conventional | new")
	blockName := flag.String("block", "B5", "block to profile (B1..B6)")
	top := flag.Int("top", 10, "print the K hottest patterns")
	plot := flag.Bool("plot", false, "render the SCAP scatter plot")
	waveform := flag.Bool("waveform", false, "render the hottest pattern's instantaneous power waveform")
	workers := flag.Int("workers", 0, "pattern-profiling workers (0 = all cores, 1 = serial)")
	solverName := flag.String("solver", "factored", core.SolverFlagUsage)
	screen := flag.Float64("screen", 0, "packed zero-delay pre-screen: exactly profile only this top fraction of patterns (0 disables)")
	obsFlags := obs.RegisterFlags()
	flag.Parse()

	die(parallel.ValidateWorkers(*workers))
	if *flow != "conventional" && *flow != "new" {
		fmt.Fprintln(os.Stderr, "scap: unknown flow", *flow)
		os.Exit(2)
	}
	if *screen < 0 || *screen > 1 {
		fmt.Fprintln(os.Stderr, "scap: -screen must be in [0, 1]")
		os.Exit(2)
	}
	solver, err := core.ParseSolver(*solverName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scap:", err)
		os.Exit(2)
	}
	die(obsFlags.Setup())

	block := -1
	for b := 0; b < soc.NumBlocks; b++ {
		if soc.BlockName(b) == *blockName {
			block = b
		}
	}
	if block < 0 {
		fmt.Fprintln(os.Stderr, "scap: unknown block", *blockName)
		os.Exit(2)
	}

	t0 := time.Now()
	cfg := core.DefaultConfig(*scale)
	cfg.Workers = *workers
	cfg.Solver = solver
	sys, err := core.Build(cfg)
	die(err)
	stat, err := sys.Statistical()
	die(err)
	var fr *core.FlowResult
	if *flow == "new" {
		fr, err = sys.NewProcedureFlow(0)
	} else {
		fr, err = sys.ConventionalFlow(0)
	}
	die(err)
	var prof []core.PatternProfile
	if *screen > 0 {
		screens, err := sys.ScreenPatterns(fr)
		die(err)
		sel := core.ScreenTop(screens, block, *screen)
		fmt.Printf("packed pre-screen: %d patterns triaged, top %.0f%% (%d) kept for exact profiling\n",
			len(screens), 100**screen, len(sel))
		prof, err = sys.ProfilePatternsAt(fr, sel)
		die(err)
	} else {
		prof, err = sys.ProfilePatterns(fr)
		die(err)
	}

	thr := stat.ThresholdMW[block]
	above := core.AboveThreshold(prof, block, thr)
	fmt.Printf("%s flow: %d patterns profiled in %v\n", fr.Name, len(prof), time.Since(t0).Round(time.Millisecond))
	fmt.Printf("%s statistical threshold (Case 2, VDD): %.2f mW\n", *blockName, thr)
	fmt.Printf("patterns above threshold: %d of %d (%.1f%%)\n",
		above, len(prof), 100*float64(above)/float64(len(prof)))

	idx := make([]int, len(prof))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return prof[idx[a]].BlockSCAPVdd[block] > prof[idx[b]].BlockSCAPVdd[block]
	})
	fmt.Printf("\nhottest %d patterns in %s:\n", *top, *blockName)
	fmt.Printf("%8s %6s %10s %10s %8s %8s\n", "pattern", "step", "SCAP mW", "CAP mW", "STW ns", "toggles")
	for k := 0; k < *top && k < len(idx); k++ {
		p := &prof[idx[k]]
		fmt.Printf("%8d %6d %10.2f %10.2f %8.2f %8d\n",
			p.Index, p.Step+1, p.BlockSCAPVdd[block], p.ChipCAPVdd, p.STW, p.Toggles)
	}
	if *plot {
		ys := make([]float64, len(prof))
		for i := range prof {
			ys[i] = prof[i].BlockSCAPVdd[block]
		}
		fmt.Println()
		fmt.Print(textplot.Scatter(ys, thr, 76, 16,
			fmt.Sprintf("%s SCAP (VDD), %s flow", *blockName, fr.Name), "mW"))
	}
	if *waveform {
		hot := prof[idx[0]].Index
		meter := power.NewMeter(sys.D)
		meter.EnableWaveform(sys.Period / 40)
		tm := sim.NewTiming(sys.Sim, sys.Delays, sys.Tree)
		ls := sim.NewLaunchScratch(sys.Sim)
		p := &fr.Patterns[hot]
		nf := len(sys.D.Flops)
		v2, err := sys.LaunchStateInto(ls, make([]logic.V, nf), make([]logic.V, nf), p.V1, p.PIs, 0)
		die(err)
		if _, err := tm.LaunchInto(ls, p.V1, v2, p.PIs, sys.Period, meter.OnToggle); err != nil {
			die(err)
		}
		w := meter.WaveformOf()
		rep := meter.Report(sys.Period)
		fmt.Println()
		fmt.Print(textplot.Profile(w.PowerMW(), 76, 14,
			fmt.Sprintf("pattern #%d instantaneous power (peak %.1f mW, CAP %.1f mW, SCAP %.1f mW)",
				hot, w.PeakMW(), rep.Chip().CAPVdd+rep.Chip().CAPVss,
				rep.Chip().SCAPVdd+rep.Chip().SCAPVss), "mW"))
	}
	die(obsFlags.Finish(os.Stdout, "scap", sys.Cfg))
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "scap:", err)
		os.Exit(1)
	}
}
