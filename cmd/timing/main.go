// Command timing runs the static timing analysis: per-domain worst
// arrivals against the test period, the k worst paths with their gate
// traces, and the STA-based STW estimate the SCAP flow can fall back to
// when simulation is too expensive.
//
// Usage:
//
//	timing [-scale N] [-dom D] [-k K] [-workers W] [-report F.json] [-trace F.json]
package main

import (
	"flag"
	"fmt"
	"math"

	"scap/internal/cli"
	"scap/internal/soc"
	"scap/internal/sta"
)

func main() {
	c := cli.New("timing", 8, "analysis workers (0 = all cores, 1 = serial)")
	dom := cli.Int("dom", 0, 0, len(soc.DefaultConfig(1).Domains)-1, "clock domain to analyze")
	k := cli.Int("k", 5, 1, math.MaxInt, "worst paths to report")
	flag.Parse()

	sys := c.Build()
	defer c.Finish()
	d := sys.D

	fmt.Printf("domain summary at test period %.4g ns:\n", sys.Period)
	fmt.Printf("%-8s %10s %10s %12s\n", "domain", "maxArr ns", "WNS ns", "endpoints")
	for i := range d.Domains {
		res, err := sta.Analyze(d, sys.Delays, sys.Tree, i, sys.Period)
		c.Check(err)
		n := 0
		for _, f := range d.Flops {
			if d.Inst(f).Domain == i {
				n++
			}
		}
		fmt.Printf("%-8s %10.2f %10.2f %12d\n", d.Domains[i].Name, res.MaxArrival, res.WNS, n)
	}

	paths, err := sta.WorstPaths(d, sys.Delays, sys.Tree, *dom, sys.Period, *k)
	c.Check(err)
	fmt.Printf("\n%d worst paths of %s:\n", len(paths), d.Domains[*dom].Name)
	for i, p := range paths {
		ep := d.Inst(p.Endpoint)
		fmt.Printf("\npath %d: delay %.3f ns, slack %.3f ns -> %s (%s)\n",
			i+1, p.DelayNs, p.SlackNs, ep.Name, soc.BlockName(ep.Block))
		for j, id := range p.Insts {
			inst := d.Inst(id)
			rise, fall := sys.Delays.Of(id)
			dl := rise
			if fall > dl {
				dl = fall
			}
			fmt.Printf("  %2d. %-28s %-6s %.3f ns\n", j+1, inst.Name, inst.Kind, dl)
		}
	}
}
