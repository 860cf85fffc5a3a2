package parasitic

import (
	"testing"

	"scap/internal/netlist"
	"scap/internal/place"
	"scap/internal/soc"
)

func placedSOC(t *testing.T) (*netlist.Design, *place.Floorplan) {
	t.Helper()
	d, _, err := soc.Generate(soc.DefaultConfig(64))
	if err != nil {
		t.Fatal(err)
	}
	fp, err := place.Place(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	return d, fp
}

func TestExtractAnnotatesEveryDrivenNet(t *testing.T) {
	d, fp := placedSOC(t)
	sum, err := Extract(d, fp, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Nets != d.NumNets() {
		t.Fatalf("annotated %d of %d nets", sum.Nets, d.NumNets())
	}
	if sum.TotalWireCap <= 0 || sum.MaxHPWL <= 0 || sum.MeanHPWL <= 0 {
		t.Fatalf("degenerate summary: %+v", sum)
	}
	for i := range d.Nets {
		n := &d.Nets[i]
		if len(n.Loads) > 0 && n.WireCap < 0 {
			t.Fatalf("net %s has negative wire cap", n.Name)
		}
	}
}

func TestExtractScalesWithDistance(t *testing.T) {
	// Two 2-pin nets, one short and one long: the long one must get more
	// cap and delay.
	dd, fp := placedSOC(t)
	if _, err := Extract(dd, fp, DefaultParams()); err != nil {
		t.Fatal(err)
	}
	// Find two instance-driven 2-pin nets with very different spans.
	var short, long *netlist.Net
	for i := range dd.Nets {
		n := &dd.Nets[i]
		if n.Driver == netlist.NoInst || len(n.Loads) != 1 {
			continue
		}
		drv, ld := dd.Inst(n.Driver), dd.Inst(n.Loads[0].Inst)
		dist := place.Dist(drv, ld)
		if dist < 50 && short == nil {
			short = n
		}
		if dist > 300 && long == nil {
			long = n
		}
	}
	if short == nil || long == nil {
		t.Skip("no suitable net pair at this scale")
	}
	if long.WireCap <= short.WireCap || long.WireDelay <= short.WireDelay {
		t.Fatalf("long net (C=%v D=%v) not larger than short (C=%v D=%v)",
			long.WireCap, long.WireDelay, short.WireCap, short.WireDelay)
	}
}

func TestPadXYOnPeriphery(t *testing.T) {
	fp := place.NewFloorplan()
	n := 40
	for i := 0; i < n; i++ {
		x, y := fp.PadXY(float64(i), n)
		onEdge := x == 0 || y == 0 || x == fp.W || y == fp.H
		if !onEdge {
			t.Fatalf("pad %d at (%v,%v) not on periphery", i, x, y)
		}
	}
	// Pads must be spread over all four edges.
	edges := map[string]bool{}
	for i := 0; i < n; i++ {
		x, y := fp.PadXY(float64(i), n)
		switch {
		case y == 0:
			edges["bottom"] = true
		case x == fp.W:
			edges["right"] = true
		case y == fp.H:
			edges["top"] = true
		case x == 0:
			edges["left"] = true
		}
	}
	if len(edges) != 4 {
		t.Fatalf("pads only on edges %v", edges)
	}
	if x, y := fp.PadXY(0, 0); x != 0 || y != 0 {
		t.Fatal("PadXY with n=0 should return origin")
	}
}

func TestParamsValidate(t *testing.T) {
	p := DefaultParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	p.CapPerUnit = -1
	if err := p.Validate(); err == nil {
		t.Fatal("negative cap accepted")
	}
	if _, err := Extract(nil, nil, p); err == nil {
		t.Fatal("Extract accepted bad params")
	}
}
