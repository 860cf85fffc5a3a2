// Command atpg generates transition-delay-fault patterns for the synthetic
// SOC, either conventionally (random fill, whole domain at once) or with
// the paper's supply-noise-tolerant procedure (per-block steps, fill-0,
// hot block last), and reports coverage and pattern statistics.
//
// Usage:
//
//	atpg [-scale N] [-flow conventional|new|single] [-dom D] [-fill random|fill0|fill1|adjacent]
//	     [-mode LOC|LOS] [-max M] [-workers W] [-report F.json] [-trace F.json]
//
// -workers shards test generation (and the fault-dropping sweeps) across
// the worker pool; the pattern set is bit-identical for every worker
// count.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"scap/internal/atpg"
	"scap/internal/cli"
	"scap/internal/core"
	"scap/internal/fault"
	"scap/internal/pattern"
	"scap/internal/soc"
)

func main() {
	c := cli.New("atpg", 8, "generation + fault-sim workers (0 = all cores, 1 = serial)")
	flow := cli.Choice("flow", "conventional", "conventional | new | single",
		map[string]func(*core.System, int) (*core.FlowResult, error){
			"conventional": (*core.System).ConventionalFlow,
			"new":          (*core.System).NewProcedureFlow,
			"single":       nil, // one ATPG run with -fill, -mode and -max
		})
	dom := cli.Int("dom", 0, 0, len(soc.DefaultConfig(1).Domains)-1, "target clock domain index (0 = clka)")
	fill := cli.Choice("fill", "random", "don't-care fill: random | fill0 | fill1 | adjacent", map[string]atpg.Fill{
		"random": atpg.FillRandom, "fill0": atpg.Fill0,
		"fill1": atpg.Fill1, "adjacent": atpg.FillAdjacent,
	})
	mode := cli.Choice("mode", "LOC", "launch mode: LOC | LOS", map[string]atpg.LaunchMode{"LOC": atpg.LOC, "LOS": atpg.LOS})
	maxPats := cli.Int("max", 0, 0, math.MaxInt, "pattern limit for -flow single (0 = unlimited)")
	outPath := flag.String("o", "", "write the generated pattern set to this file")
	flag.Parse()

	t0 := time.Now()
	sys := c.Build()
	fmt.Printf("built %d-instance design in %v\n", sys.D.NumInsts(), time.Since(t0).Round(time.Millisecond))

	if *flow == nil {
		res, err := sys.ATPG(sys.NewFaultList(), atpg.Options{
			Dom: *dom, Fill: *fill, Mode: *mode, Seed: 1, MaxPatterns: *maxPats,
		})
		c.Check(err)
		cn := res.Counts
		fmt.Printf("single run (%v, %v): %d patterns\n", *mode, *fill, len(res.Patterns))
		if g := res.Gen; g.Waves > 0 && len(res.Patterns) > 0 {
			fmt.Printf("  implication: %d waves, %d gate evaluations, %d decisions, %d backtracks\n",
				g.Waves, g.GateEvals, g.Decisions, g.Backtracks)
		}
		fmt.Printf("  faults: %d targeted, %d detected, %d aborted, %d untestable\n",
			cn.Total, cn.Detected, cn.Aborted, cn.Untestable)
		fmt.Printf("  test coverage %.2f%%, fault coverage %.2f%%\n",
			100*cn.TestCoverage(), 100*cn.FaultCoverage())
		c.Finish()
		return
	}
	fr, err := (*flow)(sys, *dom)
	c.Check(err)

	if *outPath != "" {
		f, err := os.Create(*outPath)
		c.Check(err)
		c.Check(pattern.Write(f, sys.D, fr.Patterns))
		c.Check(f.Close())
		fmt.Printf("wrote %d patterns to %s\n", len(fr.Patterns), *outPath)
	}

	cn := fr.Counts
	fmt.Printf("%s flow, domain %s: %d patterns in %v\n",
		fr.Name, sys.D.Domains[*dom].Name, len(fr.Patterns), time.Since(t0).Round(time.Millisecond))
	fmt.Printf("  faults: %d targeted, %d detected, %d aborted, %d untestable\n",
		cn.Total, cn.Detected, cn.Aborted, cn.Untestable)
	fmt.Printf("  test coverage %.2f%%, fault coverage %.2f%%\n",
		100*cn.TestCoverage(), 100*cn.FaultCoverage())
	perStep := map[int]int{}
	for i := range fr.Patterns {
		perStep[fr.Patterns[i].Step]++
	}
	if len(perStep) > 1 {
		for s := 0; s < len(core.StepBlocks); s++ {
			names := ""
			for _, b := range core.StepBlocks[s] {
				if names != "" {
					names += ","
				}
				names += soc.BlockName(b)
			}
			fmt.Printf("  step %d (%s): %d patterns\n", s+1, names, perStep[s])
		}
	}
	// Per-block fault disposition.
	fmt.Println("  per-block detected/total:")
	for b := 0; b < sys.D.NumBlocks; b++ {
		sub := intersect(fr.Faults, fr.Subset, b)
		cc := fr.Faults.CountOf(sub)
		fmt.Printf("    %s: %d/%d\n", soc.BlockName(b), cc.Detected, cc.Total)
	}
	c.Finish()
}

func intersect(l *fault.List, subset []int, block int) []int {
	var out []int
	for _, fi := range subset {
		if l.Faults[fi].Block == block {
			out = append(out, fi)
		}
	}
	return out
}
