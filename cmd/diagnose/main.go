// Command diagnose demonstrates the effect-cause diagnosis loop the paper
// recommends for silicon failures: a transition-delay defect is injected
// into a simulated "device under test", the pattern set (generated or read
// from a file produced by cmd/atpg -o) is applied, the failing-flop log is
// collected, and the candidate faults best explaining the log are ranked.
//
// Usage:
//
//	diagnose [-scale N] [-defect F] [-patterns file] [-top K] [-workers W]
//	         [-report F.json] [-trace F.json]
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"scap/internal/atpg"
	"scap/internal/cli"
	"scap/internal/diagnose"
	"scap/internal/pattern"
	"scap/internal/soc"
)

func main() {
	c := cli.New("diagnose", 16, "fault-sim workers (0 = all cores, 1 = serial)")
	defect := cli.Int("defect", -1, -1, math.MaxInt, "fault index to inject (-1 = pick a detected one)")
	patPath := flag.String("patterns", "", "pattern file from 'atpg -o' (empty = generate)")
	top := cli.Int("top", 5, 1, math.MaxInt, "candidates to report")
	flag.Parse()

	t0 := time.Now()
	sys := c.Build()
	defer c.Finish()
	l := sys.NewFaultList() // fresh statuses for diagnosis
	if *defect >= len(l.Faults) {
		c.Reject(fmt.Errorf("-defect %d out of range (have %d faults)", *defect, len(l.Faults)))
	}

	var pats []atpg.Pattern
	genList := sys.NewFaultList()
	if *patPath != "" {
		f, err := os.Open(*patPath)
		c.Check(err)
		pats, err = pattern.Read(f, sys.D)
		c.Check(err)
		c.Check(f.Close())
		fmt.Printf("read %d patterns from %s\n", len(pats), *patPath)
	} else {
		res, err := sys.ATPG(genList, atpg.Options{Dom: 0, Fill: atpg.FillRandom, Seed: 1})
		c.Check(err)
		pats = res.Patterns
		fmt.Printf("generated %d patterns\n", len(pats))
	}

	pick := *defect
	if pick < 0 {
		// Default to a fault the pattern set certainly detects.
		for fi := range genList.Faults {
			if genList.DetectedBy[fi] >= 0 && genList.Faults[fi].Block == soc.B5 {
				pick = fi
				break
			}
		}
		if pick < 0 {
			pick = 100
		}
	}
	fmt.Printf("injected defect: fault %d = %s (block %s)\n",
		pick, l.String(pick), soc.BlockName(l.Faults[pick].Block))

	tester, err := diagnose.Observe(sys.FSim, l, pick, pats, 0)
	c.Check(err)
	failingPats, failingFlops := 0, 0
	for _, ob := range tester {
		if len(ob.FailingFlops) > 0 {
			failingPats++
			failingFlops += len(ob.FailingFlops)
		}
	}
	fmt.Printf("tester log: %d failing patterns, %d failing-flop observations\n",
		failingPats, failingFlops)
	if failingFlops == 0 {
		fmt.Println("defect never excited by this pattern set — nothing to diagnose")
		return
	}

	cands, err := diagnose.Run(sys.FSim, l, tester, diagnose.Options{Dom: 0, TopK: *top})
	c.Check(err)
	fmt.Printf("\ntop candidates (%v total):\n", time.Since(t0).Round(time.Millisecond))
	fmt.Printf("%6s  %-28s %8s %10s %10s %9s\n", "rank", "fault", "score", "matched", "predicted", "observed")
	for i, cand := range cands {
		marker := ""
		if cand.Fault == pick {
			marker = "  <-- injected defect"
		}
		fmt.Printf("%6d  %-28s %8.1f %10d %10d %9d%s\n",
			i+1, l.String(cand.Fault), cand.Score, cand.Matched, cand.Predicted, cand.Observed, marker)
	}
}
