// Command flow runs the complete release pipeline once and writes every
// artifact a downstream team would consume: the structural Verilog netlist,
// SPEF parasitics, SDF delays, both pattern sets (conventional and
// noise-tolerant) in the STIL-flavored format, and a summary report with
// thresholds, screening results and detection-quality grades.
//
// Usage:
//
//	flow [-scale N] [-out dir] [-workers W] [-screen F]
//	     [-cpuprofile F] [-memprofile F] [-report F.json]
//	     [-trace F.json]
//
// With -screen F (0 < F <= 1) the packed zero-delay pre-screen ranks each
// pattern set by estimated B5 switching and the exact event-driven
// profiler runs only on the top fraction F.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"scap/internal/cli"
	"scap/internal/core"
	"scap/internal/parasitic"
	"scap/internal/pattern"
	"scap/internal/sdf"
	"scap/internal/soc"
	"scap/internal/verilog"
)

func main() {
	c := cli.New("flow", 8, "pattern-analysis and ATPG-generation workers (0 = all cores, 1 = serial)")
	out := flag.String("out", "flow_out", "artifact directory")
	screen := cli.Float("screen", 0, 0, 1, "packed zero-delay pre-screen: exactly profile only this top fraction of patterns (0 disables)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole flow to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile at flow end to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		c.Check(err)
		c.Check(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			c.Check(f.Close())
		}()
	}

	t0 := time.Now()
	c.Check(os.MkdirAll(*out, 0o755))
	sys := c.Build()

	write := func(name string, fn func(*os.File) error) {
		f, err := os.Create(filepath.Join(*out, name))
		c.Check(err)
		c.Check(fn(f))
		c.Check(f.Close())
		fmt.Printf("  wrote %s\n", filepath.Join(*out, name))
	}

	fmt.Printf("design built (%d instances) in %v\n", sys.D.NumInsts(), time.Since(t0).Round(time.Millisecond))
	// Chain-integrity signoff before anything else, as manufacturing would.
	c.Check(sys.SC.FlushTest(sys.Sim, nil))
	fmt.Printf("  scan flush test: %d chains intact\n", len(sys.SC.Chains))
	write("design.v", func(f *os.File) error { return verilog.Write(f, sys.D) })
	write("design.spef", func(f *os.File) error { return parasitic.WriteSPEF(f, sys.D) })
	write("design.sdf", func(f *os.File) error { return sdf.Write(f, sys.D, sys.Delays) })

	stat, err := sys.Statistical()
	c.Check(err)
	conv, err := sys.ConventionalFlow(0)
	c.Check(err)
	nw, err := sys.NewProcedureFlow(0)
	c.Check(err)
	write("patterns_conventional.pat", func(f *os.File) error {
		return pattern.Write(f, sys.D, conv.Patterns)
	})
	write("patterns_noise_tolerant.pat", func(f *os.File) error {
		return pattern.Write(f, sys.D, nw.Patterns)
	})

	profile := func(fr *core.FlowResult) []core.PatternProfile {
		if *screen <= 0 {
			p, err := sys.ProfilePatterns(fr)
			c.Check(err)
			return p
		}
		screens, err := sys.ScreenPatterns(fr)
		c.Check(err)
		sel := core.ScreenTop(screens, soc.B5, *screen)
		fmt.Printf("  %s: pre-screen kept %d of %d patterns for exact profiling\n",
			fr.Name, len(sel), len(screens))
		p, err := sys.ProfilePatternsAt(fr, sel)
		c.Check(err)
		return p
	}
	convProf := profile(conv)
	newProf := profile(nw)
	grade, err := sys.GradeDetections(conv, 2000)
	c.Check(err)

	write("report.txt", func(f *os.File) error {
		thr := stat.ThresholdMW[soc.B5]
		fmt.Fprintf(f, "scap flow report (scale 1/%d, seed %d)\n\n", c.Scale(), sys.Cfg.Seed)
		fmt.Fprintf(f, "design: %d instances, %d scan flops, %d chains\n",
			sys.D.NumInsts(), len(sys.D.Flops), len(sys.SC.Chains))
		fmt.Fprintf(f, "B5 SCAP threshold: %.2f mW (statistical Case 2)\n\n", thr)
		rows := []struct {
			name  string
			fr    *core.FlowResult
			prof  []core.PatternProfile
			above int
		}{
			{"conventional", conv, convProf, core.AboveThreshold(convProf, soc.B5, thr)},
			{"noise-tolerant", nw, newProf, core.AboveThreshold(newProf, soc.B5, thr)},
		}
		for _, r := range rows {
			fmt.Fprintf(f, "%-15s %5d patterns, %.1f%% test coverage, %d above B5 threshold (%.1f%%)\n",
				r.name, len(r.fr.Patterns), 100*r.fr.Counts.TestCoverage(),
				r.above, 100*float64(r.above)/float64(len(r.prof)))
		}
		fmt.Fprintf(f, "\ndetection quality (conventional): %d graded, slack best/mean/worst %.2f/%.2f/%.2f ns\n",
			len(grade.Grades), grade.BestSlack, grade.MeanSlack, grade.WorstSlack)
		fmt.Fprintf(f, "delay-decile histogram (short->long paths): %v\n", grade.Deciles)
		return nil
	})
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		c.Check(err)
		runtime.GC() // settle allocations so the heap profile reflects live data
		c.Check(pprof.WriteHeapProfile(f))
		c.Check(f.Close())
		fmt.Printf("  wrote %s\n", *memprofile)
	}
	c.Finish("atpg.gate_evals", "atpg.aborted_waves")
	fmt.Printf("flow complete in %v\n", time.Since(t0).Round(time.Millisecond))
}
