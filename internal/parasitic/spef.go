package parasitic

import (
	"bufio"
	"fmt"
	"io"

	"scap/internal/netlist"
)

// WriteSPEF emits the design's net parasitics in a reduced SPEF-style
// format: a header followed by one *D_NET record per annotated net carrying
// the lumped capacitance (fF) and interconnect delay (ns), to 6
// significant digits. It is the parasitics artifact of cmd/flow and
// cmd/socgen (the paper's Figure 5 takes STAR-RCXT SPEF at this point).
// The program never reads it back; the reader in spef_test.go checks
// the round trip.
func WriteSPEF(w io.Writer, d *netlist.Design) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "*SPEF \"reduced\"\n*DESIGN \"%s\"\n*C_UNIT FF\n*T_UNIT NS\n", d.Name)
	for i := range d.Nets {
		n := &d.Nets[i]
		if n.WireCap == 0 && n.WireDelay == 0 {
			continue
		}
		fmt.Fprintf(bw, "*D_NET %s %.6g %.6g\n", n.Name, n.WireCap, n.WireDelay)
	}
	fmt.Fprintln(bw, "*END")
	return bw.Flush()
}
