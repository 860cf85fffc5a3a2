// Package sim provides the three simulators the reproduction is built on:
//
//   - a scalar three-valued zero-delay simulator (ATPG implication, pattern
//     expansion, launch-off-capture frame derivation);
//   - a 64-way parallel-pattern simulator over logic.Word (fault dropping);
//   - an event-driven gate-level timing simulator with per-instance delays
//     and clock-tree skew (the stand-in for Synopsys VCS; it streams toggle
//     events to a callback exactly like the paper's PLI-based SCAP
//     calculator, so no VCD file is needed).
package sim

import (
	"fmt"
	"slices"

	"scap/internal/cell"
	"scap/internal/logic"
	"scap/internal/netlist"
)

// Simulator evaluates the combinational portion of a design in topological
// order. It is stateless; callers own the net-value vectors.
//
// New flattens the design once into a table that every kernel reads
// (Propagate, PropagateW, the launch settle and the timing event loop),
// so no hot loop touches the netlist's Instance or Net records:
//
//   - gates holds the combinational gates in topological order; a gate's
//     index in it is its position, and every gate sits after all gates
//     that drive its inputs;
//   - flops holds one row per flop, indexed like d.Flops (the slot);
//   - fanStart/fanout is a CSR fanout list per net, in the netlist's load
//     order: a gate position, or ^slot for the D pin of flop slot. The
//     other flop pins (SI, SE) have no combinational or endpoint effect
//     during a launch and are dropped. The timing event loop and the
//     fault cone read it: its order fixes event seq and observer order;
//   - gateStart/gateFan is a second CSR list per net holding only its gate
//     loads, each position once, in ascending order. ATPG implication's
//     dirty sweeps mark from it and take the marked range from its first
//     and last entry;
//   - driver[n] is net n's driving instance, NoInst for a primary input.
type Simulator struct {
	d         *netlist.Design
	gates     []Gate
	flops     []Gate
	fanStart  []int32
	fanout    []int32
	gateStart []int32
	gateFan   []int32
	driver    []netlist.InstID
}

// Gate is one row of the flat table: the cell kind and arity, four input
// nets in pin order (pins past the arity repeat pin 0), the output net and
// the instance (the key of sdf.Delays.Of). Rows are read only outside
// this package.
type Gate struct {
	in   [4]netlist.NetID
	out  netlist.NetID
	id   netlist.InstID
	kind cell.Kind
	n    uint8
}

// Kind returns the gate's cell kind.
func (g *Gate) Kind() cell.Kind { return g.kind }

// Inputs returns the gate's input nets in pin order.
func (g *Gate) Inputs() []netlist.NetID { return g.in[:g.n] }

// Out returns the gate's output net.
func (g *Gate) Out() netlist.NetID { return g.out }

// ID returns the gate's instance.
func (g *Gate) ID() netlist.InstID { return g.id }

// eval returns the gate's output under the net values nets. It packs all
// four pins and masks off those past the arity, so a gate costs the same
// four loads and no branch whatever its kind.
func (g *Gate) eval(nets []logic.V) logic.V {
	idx := uint32(nets[g.in[0]]) | uint32(nets[g.in[1]])<<2 |
		uint32(nets[g.in[2]])<<4 | uint32(nets[g.in[3]])<<6
	return cell.EvalPacked(g.kind, idx&(1<<(2*g.n)-1))
}

// EvalAt is eval over packed net values: each byte of vals holds several
// logic.V fields, and the gate reads the 2-bit field at bit shift.
func (g *Gate) EvalAt(vals []uint8, shift uint) logic.V {
	idx := uint32(vals[g.in[0]]>>shift&3) | uint32(vals[g.in[1]]>>shift&3)<<2 |
		uint32(vals[g.in[2]]>>shift&3)<<4 | uint32(vals[g.in[3]]>>shift&3)<<6
	return cell.EvalPacked(g.kind, idx&(1<<(2*g.n)-1))
}

// New builds a Simulator for d. It fails if the design has a combinational
// cycle.
func New(d *netlist.Design) (*Simulator, error) {
	full, err := d.TopoOrder()
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	row := func(inst *netlist.Instance) Gate {
		in0 := inst.In[0]
		g := Gate{in: [4]netlist.NetID{in0, in0, in0, in0}, out: inst.Out, id: inst.ID,
			kind: inst.Kind, n: uint8(len(inst.In))}
		copy(g.in[:], inst.In)
		return g
	}
	s := &Simulator{
		d:         d,
		gates:     make([]Gate, 0, d.NumGates()),
		flops:     make([]Gate, len(d.Flops)),
		fanStart:  make([]int32, d.NumNets()+1),
		gateStart: make([]int32, d.NumNets()+1),
		driver:    make([]netlist.InstID, d.NumNets()),
	}
	// pos[id] is a gate's position or ^slot for a flop: the fanout encoding.
	pos := make([]int32, d.NumInsts())
	for _, id := range full {
		if inst := d.Inst(id); !inst.IsFlop() {
			pos[id] = int32(len(s.gates))
			s.gates = append(s.gates, row(inst))
		}
	}
	for slot, f := range d.Flops {
		pos[f] = ^int32(slot)
		s.flops[slot] = row(d.Inst(f))
	}
	loads := 0
	for i := range d.Nets {
		loads += len(d.Nets[i].Loads)
	}
	s.fanout = make([]int32, 0, loads)
	for i := range d.Nets {
		net := &d.Nets[i]
		s.driver[i] = net.Driver
		for _, ld := range net.Loads {
			if p := pos[ld.Inst]; p >= 0 || ld.Pin == 0 {
				s.fanout = append(s.fanout, p)
			}
		}
		s.fanStart[i+1] = int32(len(s.fanout))
	}
	s.buildGateFanout()
	return s, nil
}

// buildGateFanout fills gateStart/gateFan by counting sort: it counts
// each net's gate loads, turns the counts into row ends, then visits the
// gates in descending position and fills each row from its end, so every
// row comes out ascending and no list needs sorting. A net on several
// pins of one gate is listed once.
func (s *Simulator) buildGateFanout() {
	end := s.gateStart[:len(s.gateStart)-1]
	for i := range s.gates {
		g := &s.gates[i]
		for p, n := range g.in[:g.n] {
			if !slices.Contains(g.in[:p], n) {
				end[n]++
			}
		}
	}
	for n := 1; n < len(end); n++ {
		end[n] += end[n-1]
	}
	total := end[len(end)-1]
	s.gateFan = make([]int32, total)
	for i := len(s.gates) - 1; i >= 0; i-- {
		g := &s.gates[i]
		for p, n := range g.in[:g.n] {
			if !slices.Contains(g.in[:p], n) {
				end[n]--
				s.gateFan[end[n]] = int32(i)
			}
		}
	}
	s.gateStart[len(s.gateStart)-1] = total
}

// Design returns the simulated design.
func (s *Simulator) Design() *netlist.Design { return s.d }

// loadsOf returns net n's fanout entries (see Simulator).
func (s *Simulator) loadsOf(n netlist.NetID) []int32 {
	return s.fanout[s.fanStart[n]:s.fanStart[n+1]]
}

// Gates returns the gate rows in position (topological) order. The slice
// is the table itself: read only.
func (s *Simulator) Gates() []Gate { return s.gates }

// GateLoads returns the positions of net n's gate loads, ascending, each
// once. The slice is the table itself: read only.
func (s *Simulator) GateLoads(n netlist.NetID) []int32 {
	return s.gateFan[s.gateStart[n]:s.gateStart[n+1]]
}

// NewNets returns a fresh all-X net-value vector.
func (s *Simulator) NewNets() []logic.V {
	nets := make([]logic.V, s.d.NumNets())
	for i := range nets {
		nets[i] = logic.X
	}
	return nets
}

// Propagate evaluates every combinational gate in topological order.
// Primary-input nets and flop output (Q) nets must be set by the caller;
// everything else is overwritten.
func (s *Simulator) Propagate(nets []logic.V) {
	for i := range s.gates {
		g := &s.gates[i]
		nets[g.out] = g.eval(nets)
	}
}

// CaptureState returns the value each flop would capture from the current
// net values (indexed like d.Flops). Scan flops honor their SE pin: SE=0
// captures D, SE=1 captures SI.
func (s *Simulator) CaptureState(nets []logic.V) []logic.V {
	return s.CaptureStateInto(make([]logic.V, len(s.d.Flops)), nets)
}

// CaptureStateInto is the buffer-reusing form of CaptureState: it writes
// the captured per-flop values into out (which must be len(d.Flops)) and
// returns it.
func (s *Simulator) CaptureStateInto(out []logic.V, nets []logic.V) []logic.V {
	for i := range s.flops {
		out[i] = s.flops[i].eval(nets)
	}
	return out
}

// ApplyState writes a per-flop state vector onto the flop output nets.
func (s *Simulator) ApplyState(nets []logic.V, state []logic.V) {
	for i := range s.flops {
		nets[s.flops[i].out] = state[i]
	}
}

// SetPIs writes primary-input values (indexed like d.PIs) onto the PI nets.
func (s *Simulator) SetPIs(nets []logic.V, pis []logic.V) {
	for i, n := range s.d.PIs {
		nets[n] = pis[i]
	}
}

// NewNetsW returns a fresh all-X parallel net-value vector.
func (s *Simulator) NewNetsW() []logic.Word {
	return make([]logic.Word, s.d.NumNets()) // zero Word == all-X
}

// PropagateW is the 64-way parallel counterpart of Propagate.
func (s *Simulator) PropagateW(nets []logic.Word) {
	for i := range s.gates {
		g := &s.gates[i]
		nets[g.out] = g.evalW(nets)
	}
}

// evalW is the 64-way parallel counterpart of eval.
func (g *Gate) evalW(nets []logic.Word) logic.Word {
	var buf [4]logic.Word
	in := buf[:g.n]
	for p := range in {
		in[p] = nets[g.in[p]]
	}
	return cell.EvalWord(g.kind, in)
}

// CaptureStateWInto is the 64-way parallel counterpart of CaptureState: it
// writes into out (which must be len(d.Flops)) and returns it.
func (s *Simulator) CaptureStateWInto(out, nets []logic.Word) []logic.Word {
	for i := range s.flops {
		out[i] = s.flops[i].evalW(nets)
	}
	return out
}

// ApplyStateW writes a parallel per-flop state vector onto flop output nets.
func (s *Simulator) ApplyStateW(nets []logic.Word, state []logic.Word) {
	for i := range s.flops {
		nets[s.flops[i].out] = state[i]
	}
}

// SetPIsW writes parallel primary-input values onto the PI nets.
func (s *Simulator) SetPIsW(nets []logic.Word, pis []logic.Word) {
	for i, n := range s.d.PIs {
		nets[n] = pis[i]
	}
}
