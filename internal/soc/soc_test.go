package soc

import (
	"testing"

	"scap/internal/netlist"
)

func genSmall(t *testing.T, seed int64) (*netlist.Design, *Plan) {
	t.Helper()
	cfg := DefaultConfig(64)
	cfg.Seed = seed
	d, p, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d, p
}

func TestGenerateValidDesign(t *testing.T) {
	d, _ := genSmall(t, 1)
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
	if len(d.Flops) == 0 || d.NumGates() == 0 {
		t.Fatal("empty design")
	}
}

func TestPlanMatchesDesign(t *testing.T) {
	d, p := genSmall(t, 1)
	s, err := d.ComputeStats()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.Flops, p.TotalFlops(); got != want {
		t.Fatalf("flop count: design %d, plan %d", got, want)
	}
	for dom, dp := range p.Domains {
		if s.FlopsPerDomain[dom] != dp.Flops {
			t.Errorf("domain %s: design %d flops, plan %d",
				dp.Name, s.FlopsPerDomain[dom], dp.Flops)
		}
	}
	// clka must be the dominant domain and span all six blocks.
	if p.Domains[0].Name != "clka" {
		t.Fatal("domain 0 is not clka")
	}
	for dom := 1; dom < len(p.Domains); dom++ {
		if p.Domains[dom].Flops >= p.Domains[0].Flops {
			t.Errorf("clka not dominant vs %s", p.Domains[dom].Name)
		}
	}
	if p.Domains[0].BlocksCovered() != "B1 to B6" {
		t.Errorf("clka covers %q", p.Domains[0].BlocksCovered())
	}
	// B5 holds the largest clka share.
	for b := 0; b < NumBlocks; b++ {
		if b != B5 && p.Domains[0].FlopsPerBlock[b] >= p.Domains[0].FlopsPerBlock[B5] {
			t.Errorf("B5 not the largest clka block (B%d has %d vs %d)",
				b+1, p.Domains[0].FlopsPerBlock[b], p.Domains[0].FlopsPerBlock[B5])
		}
	}
}

func TestDeterminism(t *testing.T) {
	d1, _ := genSmall(t, 42)
	d2, _ := genSmall(t, 42)
	if d1.NumInsts() != d2.NumInsts() || d1.NumNets() != d2.NumNets() {
		t.Fatal("same seed produced different sizes")
	}
	for i := range d1.Insts {
		a, b := &d1.Insts[i], &d2.Insts[i]
		if a.Name != b.Name || a.Kind != b.Kind || a.Out != b.Out {
			t.Fatalf("instance %d differs: %+v vs %+v", i, a, b)
		}
		for p := range a.In {
			if a.In[p] != b.In[p] {
				t.Fatalf("instance %d pin %d differs", i, p)
			}
		}
	}
	d3, _ := genSmall(t, 43)
	same := d1.NumInsts() == d3.NumInsts()
	if same {
		diff := false
		for i := range d1.Insts {
			if len(d1.Insts[i].In) != len(d3.Insts[i].In) {
				diff = true
				break
			}
			for p := range d1.Insts[i].In {
				if d1.Insts[i].In[p] != d3.Insts[i].In[p] {
					diff = true
					break
				}
			}
			if diff {
				break
			}
		}
		if !diff {
			t.Fatal("different seeds produced identical wiring")
		}
	}
}

func TestClockDomainIsolation(t *testing.T) {
	d, _ := genSmall(t, 1)
	// Every flop's D-input fanin cone must contain only flops of the same
	// domain: launch-off-capture per domain relies on this.
	for _, f := range d.Flops {
		inst := d.Inst(f)
		cone := d.FaninCone(inst.In[0])
		for _, src := range cone {
			s := d.Inst(src)
			if s.IsFlop() && s.Domain != inst.Domain {
				t.Fatalf("flop %s (domain %d) has cross-domain fanin from %s (domain %d)",
					inst.Name, inst.Domain, s.Name, s.Domain)
			}
		}
	}
}

func TestNegativeEdgeFlops(t *testing.T) {
	d, _ := genSmall(t, 1)
	s, err := d.ComputeStats()
	if err != nil {
		t.Fatal(err)
	}
	if s.NegEdgeFlops == 0 {
		t.Fatal("no negative-edge flops tagged")
	}
	for _, f := range d.Flops {
		inst := d.Inst(f)
		if inst.NegEdge && inst.Domain != 0 {
			t.Fatalf("negative-edge flop %s outside clka", inst.Name)
		}
	}
}

func TestDepthReached(t *testing.T) {
	cfg := DefaultConfig(64)
	d, _, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ml, err := d.MaxLevel()
	if err != nil {
		t.Fatal(err)
	}
	if int(ml) < cfg.Depth {
		t.Fatalf("max level %d below configured depth %d", ml, cfg.Depth)
	}
}

func TestScaleReducesSize(t *testing.T) {
	d64, _ := genSmall(t, 1)
	cfg := DefaultConfig(32)
	d32, _, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(d32.Flops) <= len(d64.Flops) {
		t.Fatalf("scale 32 (%d flops) not larger than scale 64 (%d flops)",
			len(d32.Flops), len(d64.Flops))
	}
}

func TestConfigValidate(t *testing.T) {
	bad := DefaultConfig(8)
	bad.Depth = 1
	if err := bad.Validate(); err == nil {
		t.Error("Depth=1 accepted")
	}
	bad = DefaultConfig(8)
	bad.CrossFrac = 0.9
	if err := bad.Validate(); err == nil {
		t.Error("CrossFrac=0.9 accepted")
	}
	bad = DefaultConfig(8)
	bad.Domains = nil
	if err := bad.Validate(); err == nil {
		t.Error("no domains accepted")
	}
	bad = DefaultConfig(8)
	bad.Domains[0].FullFlops = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero-size domain accepted")
	}
	bad = DefaultConfig(8)
	bad.TestPeriodNs = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero test period accepted")
	}
	for _, scale := range []int{0, -3} {
		if _, _, err := Generate(DefaultConfig(scale)); err == nil {
			t.Errorf("scale %d accepted", scale)
		}
	}
}

func TestBlocksCoveredFormatting(t *testing.T) {
	p := DomainPlan{FlopsPerBlock: [NumBlocks]int{0, 0, 5, 0, 0, 0}}
	if got := p.BlocksCovered(); got != "B3" {
		t.Errorf("single block: %q", got)
	}
	p = DomainPlan{FlopsPerBlock: [NumBlocks]int{1, 1, 1, 1, 1, 1}}
	if got := p.BlocksCovered(); got != "B1 to B6" {
		t.Errorf("full range: %q", got)
	}
	p = DomainPlan{FlopsPerBlock: [NumBlocks]int{1, 0, 1, 0, 0, 0}}
	if got := p.BlocksCovered(); got != "B1,B3" {
		t.Errorf("sparse: %q", got)
	}
	p = DomainPlan{}
	if got := p.BlocksCovered(); got != "-" {
		t.Errorf("empty: %q", got)
	}
}
