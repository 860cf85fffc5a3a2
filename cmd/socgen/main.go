// Command socgen generates the synthetic Turbo-Eagle-class SOC, runs the
// physical-design steps (placement, scan insertion, parasitic extraction,
// clock tree) and prints design statistics. It can also dump the reduced
// SPEF and SDF views used by the other tools.
//
// Usage:
//
//	socgen [-scale N] [-seed S] [-spef file] [-sdf file] [-floorplan]
package main

import (
	"flag"
	"fmt"
	"os"

	"scap/internal/cli"
	"scap/internal/clocktree"
	"scap/internal/parasitic"
	"scap/internal/place"
	"scap/internal/scan"
	"scap/internal/sdf"
	"scap/internal/soc"
	"scap/internal/verilog"
)

func main() {
	c := cli.Plain("socgen", 8)
	seed := flag.Int64("seed", 1, "generator seed")
	spefPath := flag.String("spef", "", "write reduced SPEF to this file")
	sdfPath := flag.String("sdf", "", "write reduced SDF to this file")
	vPath := flag.String("v", "", "write structural Verilog to this file")
	showFP := flag.Bool("floorplan", false, "print the ASCII floorplan")
	flag.Parse()

	cfg := soc.DefaultConfig(c.Scale())
	cfg.Seed = *seed
	d, plan, err := soc.Generate(cfg)
	c.Check(err)

	fp, err := place.Place(d, *seed)
	c.Check(err)
	sc, err := scan.Insert(d, scan.DefaultConfig())
	c.Check(err)
	sum, err := parasitic.Extract(d, fp, parasitic.DefaultParams())
	c.Check(err)
	tree := clocktree.Build(d, fp, clocktree.DefaultParams(), *seed+1)
	stats, err := d.ComputeStats()
	c.Check(err)

	fmt.Printf("design %s (scale 1/%d, seed %d)\n", d.Name, c.Scale(), *seed)
	fmt.Printf("  instances: %d (%d gates, %d flops), nets: %d, PIs: %d, POs: %d\n",
		stats.Insts, stats.Gates, stats.Flops, stats.Nets, stats.PIs, stats.POs)
	fmt.Printf("  max logic depth: %d levels\n", stats.MaxLevel)
	fmt.Printf("  scan chains: %d (longest %d cells), negative-edge flops: %d\n",
		len(sc.Chains), sc.MaxChainLen(), stats.NegEdgeFlops)
	fmt.Printf("  wire parasitics: %.1f pF total, mean HPWL %.0f units\n",
		sum.TotalWireCap/1000, sum.MeanHPWL)
	fmt.Printf("  clock tree: mean insertion %.2f ns, max skew %.2f ns\n",
		tree.MeanInsertion, tree.MaxSkew)
	fmt.Println("\nclock domains:")
	for i := range plan.Domains {
		dp := &plan.Domains[i]
		fmt.Printf("  %-6s %6d flops  %5.0f MHz  %s\n", dp.Name, dp.Flops, dp.FreqMHz, dp.BlocksCovered())
	}
	fmt.Println("\nflops/gates per block:")
	for b := 0; b < d.NumBlocks; b++ {
		fmt.Printf("  %s: %6d / %6d\n", soc.BlockName(b), stats.FlopsPerBlock[b], stats.GatesPerBlock[b])
	}
	if *showFP {
		fmt.Println()
		fmt.Print(fp.ASCII(56, 24))
	}
	if *spefPath != "" {
		f, err := os.Create(*spefPath)
		c.Check(err)
		c.Check(parasitic.WriteSPEF(f, d))
		c.Check(f.Close())
		fmt.Printf("\nwrote SPEF to %s\n", *spefPath)
	}
	if *vPath != "" {
		f, err := os.Create(*vPath)
		c.Check(err)
		c.Check(verilog.Write(f, d))
		c.Check(f.Close())
		fmt.Printf("wrote Verilog to %s\n", *vPath)
	}
	if *sdfPath != "" {
		f, err := os.Create(*sdfPath)
		c.Check(err)
		c.Check(sdf.Write(f, d, sdf.Compute(d)))
		c.Check(f.Close())
		fmt.Printf("wrote SDF to %s\n", *sdfPath)
	}
}
