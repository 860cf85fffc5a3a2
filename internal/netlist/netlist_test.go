package netlist

import (
	"testing"

	"scap/internal/cell"
)

// buildToy constructs a small two-flop design:
//
//	PI a, b ; flops f1, f2
//	g1 = NAND2(a, f1.Q)
//	g2 = NOR2(g1, b)
//	g3 = INV(g2)
//	f1.D = g2 ; f2.D = g3 ; PO = g3
func buildToy(t *testing.T) *Design {
	t.Helper()
	d := New("toy", cell.New180nm())
	d.NumBlocks = 1
	d.BlockNames = []string{"B1"}
	d.Domains = []DomainInfo{{Name: "clka", FreqMHz: 100, PeriodNs: 10}}

	a := d.AddPI("a")
	b := d.AddPI("b")
	q1 := d.AddNet("f1_q")
	q2 := d.AddNet("f2_q")
	n1 := d.AddNet("n1")
	n2 := d.AddNet("n2")
	n3 := d.AddNet("n3")

	d.AddInst("g1", cell.Nand2, []NetID{a, q1}, n1, 0)
	d.AddInst("g2", cell.Nor2, []NetID{n1, b}, n2, 0)
	d.AddInst("g3", cell.Inv, []NetID{n2}, n3, 0)
	f1 := d.AddInst("f1", cell.DFF, []NetID{n2}, q1, 0)
	f2 := d.AddInst("f2", cell.DFF, []NetID{n3}, q2, 0)
	d.SetDomain(f1, 0, false)
	d.SetDomain(f2, 0, false)
	d.MarkPO(n3)
	return d
}

func TestBuildAndCheck(t *testing.T) {
	d := buildToy(t)
	if err := d.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	if d.NumInsts() != 5 || d.NumGates() != 3 || len(d.Flops) != 2 {
		t.Fatalf("counts wrong: insts=%d gates=%d flops=%d", d.NumInsts(), d.NumGates(), len(d.Flops))
	}
	if len(d.PIs) != 2 || len(d.POs) != 1 {
		t.Fatalf("io wrong: %d PIs, %d POs", len(d.PIs), len(d.POs))
	}
}

func TestTopoOrderRespectsDependencies(t *testing.T) {
	d := buildToy(t)
	order, err := d.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[string]int)
	for i, id := range order {
		pos[d.Inst(id).Name] = i
	}
	if !(pos["g1"] < pos["g2"] && pos["g2"] < pos["g3"]) {
		t.Fatalf("order violates dependencies: %v", pos)
	}
	// Flops come after all combinational gates.
	if !(pos["f1"] > pos["g3"] && pos["f2"] > pos["g3"]) {
		t.Fatalf("flops not at end: %v", pos)
	}
}

func TestLevels(t *testing.T) {
	d := buildToy(t)
	lv, err := d.Levels()
	if err != nil {
		t.Fatal(err)
	}
	byName := func(name string) int32 {
		for i := range d.Insts {
			if d.Insts[i].Name == name {
				return lv[i]
			}
		}
		t.Fatalf("no instance %q", name)
		return -1
	}
	if byName("g1") != 1 || byName("g2") != 2 || byName("g3") != 3 {
		t.Fatalf("levels wrong: g1=%d g2=%d g3=%d", byName("g1"), byName("g2"), byName("g3"))
	}
	ml, err := d.MaxLevel()
	if err != nil || ml != 3 {
		t.Fatalf("MaxLevel = %d, %v", ml, err)
	}
}

func TestCombinationalCycleDetected(t *testing.T) {
	d := New("cyc", cell.New180nm())
	d.NumBlocks = 1
	a := d.AddPI("a")
	n1 := d.AddNet("n1")
	n2 := d.AddNet("n2")
	d.AddInst("g1", cell.Nand2, []NetID{a, n2}, n1, 0)
	d.AddInst("g2", cell.Inv, []NetID{n1}, n2, 0)
	if _, err := d.TopoOrder(); err == nil {
		t.Fatal("cycle not detected")
	}
	if err := d.Check(); err == nil {
		t.Fatal("Check missed cycle")
	}
}

func TestCheckCatchesUndrivenNet(t *testing.T) {
	d := New("bad", cell.New180nm())
	d.AddNet("floating")
	if err := d.Check(); err == nil {
		t.Fatal("undriven net not reported")
	}
}

func TestCheckCatchesMissingDomain(t *testing.T) {
	d := New("bad", cell.New180nm())
	d.NumBlocks = 1
	a := d.AddPI("a")
	q := d.AddNet("q")
	d.AddInst("f", cell.DFF, []NetID{a}, q, 0)
	if err := d.Check(); err == nil {
		t.Fatal("flop without domain not reported")
	}
}

func TestDoubleDrivePanics(t *testing.T) {
	d := New("bad", cell.New180nm())
	a := d.AddPI("a")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on driving a PI net")
		}
	}()
	d.AddInst("g", cell.Inv, []NetID{a}, a, 0)
}

func TestFaninCone(t *testing.T) {
	d := buildToy(t)
	var n3 NetID
	for i := range d.Nets {
		if d.Nets[i].Name == "n3" {
			n3 = d.Nets[i].ID
		}
	}
	cone := d.FaninCone(n3)
	names := map[string]bool{}
	for _, id := range cone {
		names[d.Inst(id).Name] = true
	}
	// g3 <- g2 <- {g1, PI b}; g1 <- {PI a, f1}
	for _, want := range []string{"g3", "g2", "g1", "f1"} {
		if !names[want] {
			t.Fatalf("fanin cone missing %s: %v", want, names)
		}
	}
	if names["f2"] {
		t.Fatal("f2 should not be in fanin of n3")
	}
}

func TestLoadCap(t *testing.T) {
	d := buildToy(t)
	lib := d.Lib
	// g1 output (n1) feeds g2 pin0 only.
	var g1 InstID
	for i := range d.Insts {
		if d.Insts[i].Name == "g1" {
			g1 = d.Insts[i].ID
		}
	}
	want := lib.Cell(cell.Nand2).OutputCap + lib.Cell(cell.Nor2).InputCap
	if got := d.LoadCap(g1); got != want {
		t.Fatalf("LoadCap = %v, want %v", got, want)
	}
	// After wire-cap annotation the value must grow accordingly.
	d.Nets[d.Insts[g1].Out].WireCap = 5
	if got := d.LoadCap(g1); got != want+5 {
		t.Fatalf("LoadCap with wire = %v, want %v", got, want+5)
	}
}

func TestComputeStats(t *testing.T) {
	d := buildToy(t)
	s, err := d.ComputeStats()
	if err != nil {
		t.Fatal(err)
	}
	if s.Flops != 2 || s.Gates != 3 || s.FlopsPerBlock[0] != 2 || s.FlopsPerDomain[0] != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MaxLevel != 3 {
		t.Fatalf("MaxLevel = %d", s.MaxLevel)
	}
	if s.NegEdgeFlops != 0 {
		t.Fatalf("NegEdgeFlops = %d", s.NegEdgeFlops)
	}
}

func TestBlockName(t *testing.T) {
	d := buildToy(t)
	if d.BlockName(0) != "B1" || d.BlockName(NoBlock) != "TOP" {
		t.Fatal("BlockName wrong")
	}
	d2 := New("x", cell.New180nm())
	d2.NumBlocks = 3
	if d2.BlockName(2) != "B3" {
		t.Fatal("fallback BlockName wrong")
	}
}

func TestNetAccessors(t *testing.T) {
	d := buildToy(t)
	if d.NumNets() != len(d.Nets) {
		t.Fatal("NumNets")
	}
	var n1 NetID
	for i := range d.Nets {
		if d.Nets[i].Name == "n1" {
			n1 = d.Nets[i].ID
		}
	}
	if d.Net(n1).Name != "n1" {
		t.Fatal("Net accessor")
	}
}

func TestSetInputRewires(t *testing.T) {
	d := buildToy(t)
	var g3 InstID
	var n1 NetID
	for i := range d.Insts {
		if d.Insts[i].Name == "g3" {
			g3 = d.Insts[i].ID
		}
	}
	for i := range d.Nets {
		if d.Nets[i].Name == "n1" {
			n1 = d.Nets[i].ID
		}
	}
	old := d.Insts[g3].In[0]
	d.SetInput(g3, 0, n1)
	if d.Insts[g3].In[0] != n1 {
		t.Fatal("pin not moved")
	}
	// Old net must no longer list g3 as a load; new net must.
	for _, p := range d.Nets[old].Loads {
		if p.Inst == g3 && p.Pin == 0 {
			t.Fatal("stale load on old net")
		}
	}
	found := false
	for _, p := range d.Nets[n1].Loads {
		if p.Inst == g3 && p.Pin == 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("load missing on new net")
	}
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
	// No-op rewire keeps things intact.
	d.SetInput(g3, 0, n1)
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
	// Detaching a pin (NoNet) then reattaching.
	d.SetInput(g3, 0, NoNet)
	if d.Insts[g3].In[0] != NoNet {
		t.Fatal("detach failed")
	}
	d.SetInput(g3, 0, old)
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestSetInputPanicsOnBadPin(t *testing.T) {
	d := buildToy(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.SetInput(0, 9, NoNet)
}

func TestConvertToScan(t *testing.T) {
	d := buildToy(t)
	si := d.AddPI("si")
	se := d.AddPI("se")
	var f1 InstID
	for i := range d.Insts {
		if d.Insts[i].Name == "f1" {
			f1 = d.Insts[i].ID
		}
	}
	d.ConvertToScan(f1, si, se)
	inst := d.Inst(f1)
	if inst.Kind != cell.SDFF || len(inst.In) != 3 {
		t.Fatalf("conversion wrong: %v with %d pins", inst.Kind, len(inst.In))
	}
	if inst.In[1] != si || inst.In[2] != se {
		t.Fatal("scan pins wrong")
	}
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
	// Converting twice must panic (not a DFF anymore).
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double conversion")
		}
	}()
	d.ConvertToScan(f1, si, se)
}

func TestCheckCatchesBadBlockAndArity(t *testing.T) {
	d := buildToy(t)
	d.Insts[0].Block = 42
	if err := d.Check(); err == nil {
		t.Fatal("bad block accepted")
	}
	d.Insts[0].Block = 0
	d.Insts[0].In = d.Insts[0].In[:1]
	if err := d.Check(); err == nil {
		t.Fatal("bad arity accepted")
	}
}
