package fault

import (
	"testing"

	"scap/internal/cell"
	"scap/internal/netlist"
	"scap/internal/soc"
)

func TestUniverseOnSOC(t *testing.T) {
	d, _, err := soc.Generate(soc.DefaultConfig(64))
	if err != nil {
		t.Fatal(err)
	}
	l := Universe(d)
	if l.UniverseSize != 2*d.NumNets() {
		t.Fatalf("universe %d, want %d", l.UniverseSize, 2*d.NumNets())
	}
	if len(l.Faults) == 0 || len(l.Faults) > l.UniverseSize {
		t.Fatalf("collapsed count %d out of range", len(l.Faults))
	}
	// Collapsing must shrink the list (the SOC has buffers/inverters).
	if len(l.Faults) >= l.UniverseSize {
		t.Fatal("no collapsing happened")
	}
	equiv := 0
	for i := range l.Faults {
		equiv += l.Faults[i].Equiv
	}
	if equiv != l.UniverseSize {
		t.Fatalf("equivalence classes cover %d faults, want %d", equiv, l.UniverseSize)
	}
	for i := range l.Status {
		if l.Status[i] != Undetected || l.DetectedBy[i] != -1 {
			t.Fatal("fresh list not all-undetected")
		}
	}
}

// buildCollapseCircuit: PI a -> INV i1 -> n1 (single load) -> BUF b1 -> n2 -> flop.
func buildCollapseCircuit(t *testing.T) (*netlist.Design, netlist.NetID, netlist.NetID, netlist.NetID) {
	t.Helper()
	d := netlist.New("col", cell.New180nm())
	d.NumBlocks = 1
	d.Domains = []netlist.DomainInfo{{Name: "clk", FreqMHz: 100, PeriodNs: 10}}
	a := d.AddPI("a")
	n1 := d.AddNet("n1")
	n2 := d.AddNet("n2")
	q := d.AddNet("q")
	d.AddInst("i1", cell.Inv, []netlist.NetID{a}, n1, 0)
	d.AddInst("b1", cell.Buf, []netlist.NetID{n1}, n2, 0)
	f := d.AddInst("f", cell.DFF, []netlist.NetID{n2}, q, 0)
	d.SetDomain(f, 0, false)
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
	return d, a, n1, n2
}

func TestCollapseThroughInvBuf(t *testing.T) {
	d, a, _, _ := buildCollapseCircuit(t)
	l := Universe(d)
	// Universe: 8 faults (4 nets x 2). n1 faults collapse onto a (through
	// INV, flipped); n2 faults collapse onto a (through BUF+INV).
	// q faults stay (flop output). So representatives: a(STR), a(STF),
	// q(STR), q(STF) = 4.
	if len(l.Faults) != 4 {
		for i := range l.Faults {
			t.Logf("fault %d: %s", i, l.String(i))
		}
		t.Fatalf("collapsed to %d, want 4", len(l.Faults))
	}
	// a's two classes each represent 3 universe faults.
	for i := range l.Faults {
		f := &l.Faults[i]
		if f.Net == a && f.Equiv != 3 {
			t.Fatalf("fault %s Equiv=%d, want 3", l.String(i), f.Equiv)
		}
	}
}

func TestNoCollapseAcrossFanout(t *testing.T) {
	d := netlist.New("fan", cell.New180nm())
	d.NumBlocks = 1
	d.Domains = []netlist.DomainInfo{{Name: "clk", FreqMHz: 100, PeriodNs: 10}}
	a := d.AddPI("a")
	n1 := d.AddNet("n1")
	n2 := d.AddNet("n2")
	q := d.AddNet("q")
	q2 := d.AddNet("q2")
	d.AddInst("i1", cell.Inv, []netlist.NetID{a}, n1, 0)
	d.AddInst("i2", cell.Inv, []netlist.NetID{a}, n2, 0) // a has fanout 2
	f1 := d.AddInst("f1", cell.DFF, []netlist.NetID{n1}, q, 0)
	f2 := d.AddInst("f2", cell.DFF, []netlist.NetID{n2}, q2, 0)
	d.SetDomain(f1, 0, false)
	d.SetDomain(f2, 0, false)
	l := Universe(d)
	// n1/n2 must NOT collapse onto a (a has two loads): faults a(2) +
	// n1(2) + n2(2) + q(2) + q2(2) = 10.
	if len(l.Faults) != 10 {
		t.Fatalf("collapsed to %d, want 10 (no collapse across fanout)", len(l.Faults))
	}
}

func TestInBlocksAndDomains(t *testing.T) {
	d, _, err := soc.Generate(soc.DefaultConfig(64))
	if err != nil {
		t.Fatal(err)
	}
	l := Universe(d)
	// Every floorplan block holds fault sites (block-aware ATPG targets
	// them by Fault.Block).
	perBlock := make([]int, d.NumBlocks)
	for i := range l.Faults {
		if b := l.Faults[i].Block; b >= 0 {
			perBlock[b]++
		}
	}
	for b, n := range perBlock {
		if n == 0 {
			t.Fatalf("no faults in block %s", d.BlockName(b))
		}
	}
	// clka (domain 0) must be the dominant domain by fault count.
	clka := l.InDomain(0)
	for dom := 1; dom < len(d.Domains); dom++ {
		if n := len(l.InDomain(dom)); n >= len(clka) {
			t.Fatalf("domain %d holds %d faults vs clka's %d", dom, n, len(clka))
		}
	}
	// Domain partitions must be disjoint.
	seen := make(map[int]int)
	for dom := range d.Domains {
		for _, fi := range l.InDomain(dom) {
			if prev, ok := seen[fi]; ok {
				t.Fatalf("fault %d in domains %d and %d", fi, prev, dom)
			}
			seen[fi] = dom
		}
	}
}

func TestCountsAndCoverage(t *testing.T) {
	d, _, err := soc.Generate(soc.DefaultConfig(64))
	if err != nil {
		t.Fatal(err)
	}
	l := Universe(d)
	l.MarkDetected(0, 7)
	l.MarkDetected(1, 8)
	l.MarkDetected(0, 9) // second detection must not overwrite
	l.Status[2] = Untestable
	l.Status[3] = Aborted
	c := l.Count()
	if c.Detected != 2 || c.Untestable != 1 || c.Aborted != 1 {
		t.Fatalf("counts %+v", c)
	}
	if l.DetectedBy[0] != 7 {
		t.Fatalf("first detection overwritten: %d", l.DetectedBy[0])
	}
	if got := c.TestCoverage(); got != float64(2)/float64(c.Total-1) {
		t.Fatalf("TestCoverage %v", got)
	}
	if got := c.FaultCoverage(); got != float64(2)/float64(c.Total) {
		t.Fatalf("FaultCoverage %v", got)
	}
	sub := l.CountOf([]int{0, 2})
	if sub.Total != 2 || sub.Detected != 1 || sub.Untestable != 1 {
		t.Fatalf("subset counts %+v", sub)
	}
	if (Counts{}).TestCoverage() != 0 || (Counts{}).FaultCoverage() != 0 {
		t.Fatal("empty coverage should be 0")
	}
}

func TestStatusAndTypeStrings(t *testing.T) {
	if STR.String() != "STR" || STF.String() != "STF" {
		t.Fatal("type strings")
	}
	for s, want := range map[Status]string{
		Undetected: "undetected", Detected: "detected",
		Aborted: "aborted", Untestable: "untestable",
	} {
		if s.String() != want {
			t.Fatalf("%d -> %q", s, s.String())
		}
	}
}
