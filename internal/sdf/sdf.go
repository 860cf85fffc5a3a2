// Package sdf computes per-instance pin-to-output delays and writes them
// in a reduced SDF-style format. It stands in for the paper's standard-
// delay-format back-annotation step: the event-driven timing simulator and
// the IR-drop-aware re-simulation both consume a Delays table computed
// directly from the library and extracted parasitics (Compute); Write
// exports it for other tools.
package sdf

import (
	"bufio"
	"fmt"
	"io"

	"scap/internal/netlist"
)

// Delays holds, for every instance (indexed by InstID), the delay from an
// input change to the corresponding output change, split by output edge.
// The value includes the cell delay under its extracted output load plus
// the interconnect delay of the output net.
type Delays struct {
	Rise []float64 // ns, output rising
	Fall []float64 // ns, output falling
}

// Compute derives nominal delays for every instance of d from the library's
// linear delay model and the parasitic annotation on the nets.
func Compute(d *netlist.Design) *Delays {
	n := len(d.Insts)
	dl := &Delays{Rise: make([]float64, n), Fall: make([]float64, n)}
	for i := range d.Insts {
		inst := &d.Insts[i]
		c := d.Lib.Cell(inst.Kind)
		load := d.LoadCap(inst.ID)
		wire := d.Nets[inst.Out].WireDelay
		dl.Rise[i] = c.RiseDelay(load) + wire
		dl.Fall[i] = c.FallDelay(load) + wire
	}
	return dl
}

// Clone returns a deep copy of the delay table (used before scaling).
func (dl *Delays) Clone() *Delays {
	out := &Delays{Rise: make([]float64, len(dl.Rise)), Fall: make([]float64, len(dl.Fall))}
	copy(out.Rise, dl.Rise)
	copy(out.Fall, dl.Fall)
	return out
}

// Of returns the rise and fall delay of instance id.
func (dl *Delays) Of(id netlist.InstID) (rise, fall float64) {
	return dl.Rise[id], dl.Fall[id]
}

// Write emits the delay table in reduced SDF form: one IOPATH record per
// instance with rise and fall delays in ns.
func Write(w io.Writer, d *netlist.Design, dl *Delays) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "(DELAYFILE (DESIGN \"%s\") (TIMESCALE 1ns)\n", d.Name)
	for i := range d.Insts {
		fmt.Fprintf(bw, "(CELL %s (IOPATH %.6g %.6g))\n", d.Insts[i].Name, dl.Rise[i], dl.Fall[i])
	}
	fmt.Fprintln(bw, ")")
	return bw.Flush()
}
