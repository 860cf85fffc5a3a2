// Command repro regenerates the paper's tables and figures on the
// synthetic SOC.
//
// Usage:
//
//	repro [-scale N] [-exp id] [-list] [-workers W] [-report F.json] [-trace F.json]
//
// With no -exp it runs every experiment (table1..table4, fig1..fig7 and
// the ext-* extensions) and prints the combined report; -scale selects
// the design scale divisor (default 4, ~5.8K scan flops; 1 is the
// paper's full ~23K size).
package main

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"scap/internal/cli"
	"scap/internal/repro"
)

func main() {
	c := cli.New("repro", 4, "pattern-analysis workers (0 = all cores, 1 = serial)")
	ids := map[string]string{"": ""}
	for _, id := range repro.Experiments {
		ids[id] = id
	}
	exp := cli.Choice("exp", "", "experiment id ("+strings.Join(repro.Experiments, ", ")+"); empty = all", ids)
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	if *list {
		for _, id := range repro.Experiments {
			fmt.Println(id)
		}
		return
	}
	t0 := time.Now()
	r, err := repro.NewSystem(c.Build())
	c.Check(err)
	fmt.Printf("system built at scale 1/%d in %v: %d instances, %d nets, %d scan flops\n\n",
		c.Scale(), time.Since(t0).Round(time.Millisecond),
		r.Sys.D.NumInsts(), r.Sys.D.NumNets(), len(r.Sys.D.Flops))

	var out string
	if *exp == "" {
		out, err = r.All()
	} else {
		out, err = r.Run(*exp)
	}
	c.Check(err)
	fmt.Print(out)
	fmt.Printf("\ntotal runtime %v\n", time.Since(t0).Round(time.Millisecond))
	c.Finish()
}
