package netlist

import "fmt"

// TopoOrder returns the combinational instances of the design in a
// topological order: an instance appears after every combinational instance
// that drives one of its inputs. Flop outputs and primary inputs are
// sources. Flops themselves are included at the end of the order (their D /
// SI / SE inputs are consumed by the capture step, not by propagation).
// It returns an error if the combinational logic contains a cycle.
func (d *Design) TopoOrder() ([]InstID, error) {
	if d.topo != nil {
		return d.topo, nil
	}
	n := len(d.Insts)
	indeg := make([]int32, n)
	for i := range d.Insts {
		inst := &d.Insts[i]
		if inst.IsFlop() {
			continue // flops break the cycle; handled after comb logic
		}
		for _, in := range inst.In {
			if in == NoNet {
				continue
			}
			drv := d.Nets[in].Driver
			if drv != NoInst && !d.Insts[drv].IsFlop() {
				indeg[i]++
			}
		}
	}
	order := make([]InstID, 0, n)
	queue := make([]InstID, 0, n)
	for i := range d.Insts {
		if !d.Insts[i].IsFlop() && indeg[i] == 0 {
			queue = append(queue, InstID(i))
		}
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		for _, p := range d.Nets[d.Insts[id].Out].Loads {
			li := p.Inst
			if d.Insts[li].IsFlop() {
				continue
			}
			indeg[li]--
			if indeg[li] == 0 {
				queue = append(queue, li)
			}
		}
	}
	if len(order) != d.NumGates() {
		return nil, fmt.Errorf("netlist: combinational cycle detected (%d of %d gates ordered)",
			len(order), d.NumGates())
	}
	for _, f := range d.Flops {
		order = append(order, f)
	}
	d.topo = order
	return order, nil
}

// Levels returns the per-instance logic level: sources (instances fed only
// by flop outputs or primary inputs) are level 1; every other combinational
// instance is one more than its deepest combinational fanin. Flops are
// level 0. The result is indexed by InstID.
func (d *Design) Levels() ([]int32, error) {
	if d.levels != nil {
		return d.levels, nil
	}
	order, err := d.TopoOrder()
	if err != nil {
		return nil, err
	}
	lv := make([]int32, len(d.Insts))
	for _, id := range order {
		inst := &d.Insts[id]
		if inst.IsFlop() {
			lv[id] = 0
			continue
		}
		max := int32(0)
		for _, in := range inst.In {
			if in == NoNet {
				continue
			}
			drv := d.Nets[in].Driver
			if drv != NoInst && !d.Insts[drv].IsFlop() && lv[drv] > max {
				max = lv[drv]
			}
		}
		lv[id] = max + 1
	}
	d.levels = lv
	return lv, nil
}

// MaxLevel returns the deepest combinational level in the design.
func (d *Design) MaxLevel() (int32, error) {
	lv, err := d.Levels()
	if err != nil {
		return 0, err
	}
	var max int32
	for _, l := range lv {
		if l > max {
			max = l
		}
	}
	return max, nil
}

// FaninCone returns the set of instances (combinational gates and the flops
// or primary inputs at the frontier) in the transitive fanin of net start.
// Flops are included but not traversed through.
func (d *Design) FaninCone(start NetID) []InstID {
	seenInst := make(map[InstID]bool)
	seenNet := make(map[NetID]bool)
	var cone []InstID
	stack := []NetID{start}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seenNet[n] {
			continue
		}
		seenNet[n] = true
		drv := d.Nets[n].Driver
		if drv == NoInst || seenInst[drv] {
			continue
		}
		seenInst[drv] = true
		cone = append(cone, drv)
		if d.Insts[drv].IsFlop() {
			continue
		}
		for _, in := range d.Insts[drv].In {
			if in != NoNet {
				stack = append(stack, in)
			}
		}
	}
	return cone
}
