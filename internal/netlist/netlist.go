// Package netlist defines the flattened gate-level netlist representation
// shared by every other subsystem: instances, nets, pins, block and clock
// domain tags, plus structural utilities (levelization, cone extraction,
// validation, statistics).
//
// The netlist is flat — hierarchy survives only as the per-instance Block
// tag, mirroring how the paper's flow treats its SOC: a single flattened
// design whose instances belong to floorplan blocks B1..B6.
package netlist

import (
	"fmt"

	"scap/internal/cell"
)

// InstID indexes an Instance within a Design.
type InstID int32

// NetID indexes a Net within a Design.
type NetID int32

// NoInst marks the absence of an instance (e.g. the driver of a primary input).
const NoInst InstID = -1

// NoNet marks the absence of a net (e.g. an unconnected optional pin).
const NoNet NetID = -1

// NoBlock tags top-level glue logic that belongs to no floorplan block.
const NoBlock = -1

// Pin identifies one input pin of one instance.
type Pin struct {
	Inst InstID
	Pin  int // input pin index, in cell.Kind pin order
}

// Instance is one placed library cell.
type Instance struct {
	ID   InstID
	Name string
	Kind cell.Kind

	In  []NetID // input nets, in pin order (len == Kind.NumInputs())
	Out NetID   // output net

	Block   int  // floorplan block index (0-based), or NoBlock
	Domain  int  // clock-domain index for sequential cells; -1 for combinational
	NegEdge bool // true for negative-edge-triggered flops

	X, Y float64 // placement location (die units); filled by internal/place
}

// IsFlop reports whether the instance is sequential.
func (in *Instance) IsFlop() bool { return in.Kind.IsSequential() }

// Net is one signal net with a single driver and fanout loads.
type Net struct {
	ID     NetID
	Name   string
	Driver InstID // driving instance, or NoInst when PIIndex >= 0
	PI     int    // index into Design.PIs when primary-input driven, else -1

	Loads []Pin // fanout pins
	PO    bool  // also observed as a primary output

	// Electrical annotation, filled by internal/parasitic:
	WireCap   float64 // interconnect capacitance, fF
	WireDelay float64 // interconnect delay from driver to loads, ns
}

// DomainInfo describes one clock domain of the design.
type DomainInfo struct {
	Name     string
	FreqMHz  float64
	PeriodNs float64
}

// Design is a flattened gate-level design.
type Design struct {
	Name string
	Lib  *cell.Library

	Insts []Instance
	Nets  []Net

	PIs []NetID // primary-input nets, in pad order
	POs []NetID // primary-output nets

	Flops []InstID // all sequential instances

	NumBlocks int
	Domains   []DomainInfo

	topo   []InstID // cached combinational topological order
	levels []int32  // cached per-instance level (flop/PI sources at 0)
}

// New creates an empty design using lib.
func New(name string, lib *cell.Library) *Design {
	return &Design{Name: name, Lib: lib}
}

// AddNet appends a new undriven net and returns its ID.
func (d *Design) AddNet(name string) NetID {
	id := NetID(len(d.Nets))
	d.Nets = append(d.Nets, Net{ID: id, Name: name, Driver: NoInst, PI: -1})
	d.invalidate()
	return id
}

// AddPI appends a new primary-input net and returns its ID.
func (d *Design) AddPI(name string) NetID {
	id := d.AddNet(name)
	d.Nets[id].PI = len(d.PIs)
	d.PIs = append(d.PIs, id)
	return id
}

// MarkPO marks net n as a primary output.
func (d *Design) MarkPO(n NetID) {
	if !d.Nets[n].PO {
		d.Nets[n].PO = true
		d.POs = append(d.POs, n)
	}
}

// AddInst appends an instance of kind driving net out from inputs in, and
// wires up the net loads/driver cross-references. The in slice is retained.
func (d *Design) AddInst(name string, kind cell.Kind, in []NetID, out NetID, block int) InstID {
	if len(in) != kind.NumInputs() {
		panic(fmt.Sprintf("netlist: %s (%v) needs %d inputs, got %d", name, kind, kind.NumInputs(), len(in)))
	}
	id := InstID(len(d.Insts))
	d.Insts = append(d.Insts, Instance{
		ID: id, Name: name, Kind: kind, In: in, Out: out,
		Block: block, Domain: -1,
	})
	if d.Nets[out].Driver != NoInst || d.Nets[out].PI >= 0 {
		panic(fmt.Sprintf("netlist: net %s already driven", d.Nets[out].Name))
	}
	d.Nets[out].Driver = id
	for p, n := range in {
		if n != NoNet {
			d.Nets[n].Loads = append(d.Nets[n].Loads, Pin{Inst: id, Pin: p})
		}
	}
	if kind.IsSequential() {
		d.Flops = append(d.Flops, id)
	}
	d.invalidate()
	return id
}

// SetDomain assigns flop f to clock domain dom (index into Domains) and
// records its clock edge.
func (d *Design) SetDomain(f InstID, dom int, negEdge bool) {
	inst := &d.Insts[f]
	if !inst.IsFlop() {
		panic("netlist: SetDomain on combinational instance " + inst.Name)
	}
	inst.Domain = dom
	inst.NegEdge = negEdge
}

// Inst returns the instance with the given ID.
func (d *Design) Inst(id InstID) *Instance { return &d.Insts[id] }

// Net returns the net with the given ID.
func (d *Design) Net(id NetID) *Net { return &d.Nets[id] }

// NumInsts returns the instance count.
func (d *Design) NumInsts() int { return len(d.Insts) }

// NumNets returns the net count.
func (d *Design) NumNets() int { return len(d.Nets) }

// NumGates returns the number of combinational instances.
func (d *Design) NumGates() int { return len(d.Insts) - len(d.Flops) }

// FlopDomains returns the clock domain of every flop, indexed like Flops.
func (d *Design) FlopDomains() []int {
	dom := make([]int, len(d.Flops))
	for slot, f := range d.Flops {
		dom[slot] = d.Insts[f].Domain
	}
	return dom
}

// LoadCap returns the total capacitance (fF) switched when the output of
// instance id toggles: the cell's intrinsic output cap, the net wire cap,
// and the input-pin caps of all fanout loads. This is the C_i of the
// paper's CAP/SCAP formulas.
func (d *Design) LoadCap(id InstID) float64 {
	inst := &d.Insts[id]
	n := &d.Nets[inst.Out]
	c := d.Lib.Cell(inst.Kind).OutputCap + n.WireCap
	for _, p := range n.Loads {
		c += d.Lib.Cell(d.Insts[p.Inst].Kind).InputCap
	}
	return c
}

func (d *Design) invalidate() {
	d.topo = nil
	d.levels = nil
}
