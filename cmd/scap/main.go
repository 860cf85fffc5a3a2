// Command scap is the SCAP calculator: the reproduction of the paper's
// PLI-based flow (Figure 5). It generates (or re-derives) a pattern set,
// streams each pattern through the gate-level timing simulator, and prints
// the per-pattern CAP/SCAP profile per block — with no VCD intermediary.
//
// Usage:
//
//	scap [-scale N] [-flow conventional|new] [-block B5] [-top K] [-plot] [-workers W]
//	     [-screen F] [-report F.json] [-trace F.json] [-trace-sample N]
//
// With -screen F (0 < F <= 1) the packed zero-delay pre-screen ranks all
// patterns by estimated switching in the profiled block first, and the
// exact event-driven profiler runs only on the top fraction F.
package main

import (
	"flag"
	"fmt"
	"math"
	"sort"
	"time"

	"scap/internal/cli"
	"scap/internal/core"
	"scap/internal/power"
	"scap/internal/soc"
	"scap/internal/textplot"
)

func main() {
	c := cli.New("scap", 8, "pattern-profiling workers (0 = all cores, 1 = serial)")
	flow := cli.Choice("flow", "conventional", "conventional | new",
		map[string]func(*core.System, int) (*core.FlowResult, error){
			"conventional": (*core.System).ConventionalFlow,
			"new":          (*core.System).NewProcedureFlow,
		})
	blocks := map[string]int{}
	for b := 0; b < soc.NumBlocks; b++ {
		blocks[soc.BlockName(b)] = b
	}
	blockFlag := cli.Choice("block", "B5", "block to profile (B1..B6)", blocks)
	top := cli.Int("top", 10, 1, math.MaxInt, "print the K hottest patterns")
	plot := flag.Bool("plot", false, "render the SCAP scatter plot")
	waveform := flag.Bool("waveform", false, "render the hottest pattern's instantaneous power waveform")
	screen := cli.Float("screen", 0, 0, 1, "packed zero-delay pre-screen: exactly profile only this top fraction of patterns (0 disables)")
	flag.Parse()
	block := *blockFlag

	t0 := time.Now()
	sys := c.Build()
	stat, err := sys.Statistical()
	c.Check(err)
	fr, err := (*flow)(sys, 0)
	c.Check(err)
	var prof []core.PatternProfile
	if *screen > 0 {
		screens, err := sys.ScreenPatterns(fr)
		c.Check(err)
		sel := core.ScreenTop(screens, block, *screen)
		fmt.Printf("packed pre-screen: %d patterns triaged, top %.0f%% (%d) kept for exact profiling\n",
			len(screens), 100**screen, len(sel))
		prof, err = sys.ProfilePatternsAt(fr, sel)
		c.Check(err)
	} else {
		prof, err = sys.ProfilePatterns(fr)
		c.Check(err)
	}

	thr := stat.ThresholdMW[block]
	above := core.AboveThreshold(prof, block, thr)
	fmt.Printf("%s flow: %d patterns profiled in %v\n", fr.Name, len(prof), time.Since(t0).Round(time.Millisecond))
	fmt.Printf("%s statistical threshold (Case 2, VDD): %.2f mW\n", soc.BlockName(block), thr)
	fmt.Printf("patterns above threshold: %d of %d (%.1f%%)\n",
		above, len(prof), 100*float64(above)/float64(len(prof)))

	idx := make([]int, len(prof))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return prof[idx[a]].BlockSCAPVdd[block] > prof[idx[b]].BlockSCAPVdd[block]
	})
	fmt.Printf("\nhottest %d patterns in %s:\n", *top, soc.BlockName(block))
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
			fmt.Sprintf("%s SCAP (VDD), %s flow", soc.BlockName(block), fr.Name), "mW"))
	}
	if *waveform {
		hot := prof[idx[0]].Index
		meter := power.NewMeter(sys.D)
		meter.EnableWaveform(sys.Period / 40)
		_, err := sys.LaunchPattern(&fr.Patterns[hot], fr.Dom, meter.OnToggle)
		c.Check(err)
		w := meter.WaveformOf()
		rep := meter.Report(sys.Period)
		fmt.Println()
		fmt.Print(textplot.Profile(w.PowerMW(), 76, 14,
			fmt.Sprintf("pattern #%d instantaneous power (peak %.1f mW, CAP %.1f mW, SCAP %.1f mW)",
				hot, w.PeakMW(), rep.Chip().CAPVdd+rep.Chip().CAPVss,
				rep.Chip().SCAPVdd+rep.Chip().SCAPVss), "mW"))
	}
	c.Finish()
}
