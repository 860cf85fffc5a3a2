package atpg

import (
	"math/bits"
	"slices"
	"testing"

	"scap/internal/cell"
	"scap/internal/netlist"
)

// fanoutConeRef is the reference fanout cone: the combinational instances
// reachable from net start through combinational logic (flops stop
// propagation), in the design's TopoOrder. It walks the whole TopoOrder, so
// it costs O(design) per call; the engine's collectCone must agree with it
// element for element.
func fanoutConeRef(d *netlist.Design, start netlist.NetID) ([]netlist.InstID, error) {
	order, err := d.TopoOrder()
	if err != nil {
		return nil, err
	}
	netIn := make([]bool, len(d.Nets))
	netIn[start] = true
	cone := make([]netlist.InstID, 0, 64)
	for _, id := range order {
		inst := &d.Insts[id]
		if inst.IsFlop() {
			continue
		}
		hit := false
		for _, in := range inst.In {
			if in != netlist.NoNet && netIn[in] {
				hit = true
				break
			}
		}
		if hit {
			netIn[inst.Out] = true
			cone = append(cone, id)
		}
	}
	return cone, nil
}

// buildConeToy is a three-gate design with two flops: g1 = NAND(a, f1.Q),
// g2 = NOR(g1, b) feeding f1.D, g3 = INV(g2) feeding f2.D.
func buildConeToy(t *testing.T) (*netlist.Design, map[string]netlist.NetID) {
	t.Helper()
	d := netlist.New("toy", cell.New180nm())
	d.NumBlocks = 1
	d.Domains = []netlist.DomainInfo{{Name: "clka", FreqMHz: 100, PeriodNs: 10}}
	n := map[string]netlist.NetID{"a": d.AddPI("a"), "b": d.AddPI("b")}
	for _, name := range []string{"q1", "q2", "n1", "n2", "n3"} {
		n[name] = d.AddNet(name)
	}
	d.AddInst("g1", cell.Nand2, []netlist.NetID{n["a"], n["q1"]}, n["n1"], 0)
	d.AddInst("g2", cell.Nor2, []netlist.NetID{n["n1"], n["b"]}, n["n2"], 0)
	d.AddInst("g3", cell.Inv, []netlist.NetID{n["n2"]}, n["n3"], 0)
	f1 := d.AddInst("f1", cell.DFF, []netlist.NetID{n["n2"]}, n["q1"], 0)
	f2 := d.AddInst("f2", cell.DFF, []netlist.NetID{n["n3"]}, n["q2"], 0)
	d.SetDomain(f1, 0, false)
	d.SetDomain(f2, 0, false)
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
	return d, n
}

func TestFanoutCone(t *testing.T) {
	d, n := buildConeToy(t)
	// The cone from n1 (g1's output) holds g2 and g3 but not g1.
	cone, err := fanoutConeRef(d, n["n1"])
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, id := range cone {
		names[d.Inst(id).Name] = true
	}
	if !names["g2"] || !names["g3"] || names["g1"] || len(names) != 2 {
		t.Fatalf("cone = %v", names)
	}
	// Flops stop propagation: f1 feeds g1 but the cone from n2 ends at g3.
	cone, err = fanoutConeRef(d, n["n2"])
	if err != nil {
		t.Fatal(err)
	}
	if len(cone) != 1 || d.Inst(cone[0]).Name != "g3" {
		t.Fatalf("cone from n2 = %v", cone)
	}
}

// TestEngineConeMatchesReference checks collectCone against the reference
// for every net of a scale-96 design. The cone bitset holds gate
// positions: read in ascending order and mapped to instances, its members
// must equal the reference element for element, its bounds must cover
// them, and the teardown must leave the bitset empty for the next net.
func TestEngineConeMatchesReference(t *testing.T) {
	r := newRig(t, 96)
	e, err := newEngine(r.s, runConfig(r.d, r.sc, Options{Dom: 0, BacktrackLimit: 64}, nil))
	if err != nil {
		t.Fatal(err)
	}
	var got []netlist.InstID
	for n := range r.d.Nets {
		want, err := fanoutConeRef(r.d, netlist.NetID(n))
		if err != nil {
			t.Fatal(err)
		}
		e.collectCone(netlist.NetID(n))
		got = got[:0]
		c := &e.inCone
		for w, x := range c.bits {
			for ; x != 0; x &= x - 1 {
				p := w<<6 | bits.TrailingZeros64(x)
				if p < c.lo || p > c.hi {
					t.Fatalf("net %s: member %d outside the bounds [%d, %d]", r.d.Nets[n].Name, p, c.lo, c.hi)
				}
				got = append(got, e.gates[p].ID())
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("net %s: cone %v, want %v", r.d.Nets[n].Name, got, want)
		}
		e.teardown(0)
		if err := e.checkCleared(); err != nil {
			t.Fatalf("net %s: %v", r.d.Nets[n].Name, err)
		}
	}
}
