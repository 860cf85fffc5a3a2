package sta

import (
	"math"
	"testing"

	"scap/internal/cell"
	"scap/internal/clocktree"
	"scap/internal/logic"
	"scap/internal/netlist"
	"scap/internal/parasitic"
	"scap/internal/place"
	"scap/internal/sdf"
	"scap/internal/sim"
	"scap/internal/soc"
)

func TestAnalyzeChain(t *testing.T) {
	d := netlist.New("chain", cell.New180nm())
	d.NumBlocks = 1
	d.Domains = []netlist.DomainInfo{{Name: "clk", FreqMHz: 50, PeriodNs: 20}}
	q1 := d.AddNet("q1")
	q2 := d.AddNet("q2")
	a := d.AddNet("a")
	b := d.AddNet("b")
	d.AddInst("i1", cell.Inv, []netlist.NetID{q1}, a, 0)
	d.AddInst("i2", cell.Inv, []netlist.NetID{a}, b, 0)
	f1 := d.AddInst("f1", cell.DFF, []netlist.NetID{b}, q1, 0)
	f2 := d.AddInst("f2", cell.DFF, []netlist.NetID{b}, q2, 0)
	d.SetDomain(f1, 0, false)
	d.SetDomain(f2, 0, false)
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
	dl := sdf.Compute(d)
	res, err := Analyze(d, dl, nil, 0, 20)
	if err != nil {
		t.Fatal(err)
	}
	var i1, i2 netlist.InstID
	for i := range d.Insts {
		switch d.Insts[i].Name {
		case "i1":
			i1 = netlist.InstID(i)
		case "i2":
			i2 = netlist.InstID(i)
		}
	}
	ffMax := math.Max(dl.Rise[f1], dl.Fall[f1])
	want := ffMax + math.Max(dl.Rise[i1], dl.Fall[i1]) + math.Max(dl.Rise[i2], dl.Fall[i2])
	if math.Abs(res.MaxArrival-want) > 1e-9 {
		t.Fatalf("MaxArrival %v, want %v", res.MaxArrival, want)
	}
	if math.Abs(res.WNS-(20-want)) > 1e-9 {
		t.Fatalf("WNS %v, want %v", res.WNS, 20-want)
	}
	// Critical path: f1 -> i1 -> i2 -> (endpoint flop).
	if len(res.CritPath) < 3 {
		t.Fatalf("critical path too short: %d", len(res.CritPath))
	}
	if res.CritPath[0] != f1 && res.CritPath[0] != f2 {
		t.Fatalf("path does not start at a flop: %v", res.CritPath)
	}
}

func buildSOC(t *testing.T) (*netlist.Design, *sdf.Delays, *clocktree.Tree) {
	t.Helper()
	d, _, err := soc.Generate(soc.DefaultConfig(64))
	if err != nil {
		t.Fatal(err)
	}
	fp, _ := place.Place(d, 1)
	if _, err := parasitic.Extract(d, fp, parasitic.DefaultParams()); err != nil {
		t.Fatal(err)
	}
	return d, sdf.Compute(d), clocktree.Build(d, fp, clocktree.DefaultParams(), 5)
}

func TestAnalyzeSOCDomains(t *testing.T) {
	d, dl, tree := buildSOC(t)
	res, err := Analyze(d, dl, tree, 0, 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxArrival <= 0 {
		t.Fatal("no arrivals")
	}
	if res.CritEndpoint < 0 {
		t.Fatal("no critical endpoint")
	}
	// Endpoints of other domains must be NaN.
	for i, f := range d.Flops {
		if d.Inst(f).Domain != 0 && !math.IsNaN(res.EndpointDelay[i]) {
			t.Fatalf("cross-domain endpoint %d has delay %v", i, res.EndpointDelay[i])
		}
	}
}

// TestSTAUpperBoundsTimingSim: the STA worst arrival must upper-bound the
// last transition time of any simulated launch of the same domain.
func TestSTAUpperBoundsTimingSim(t *testing.T) {
	d, dl, tree := buildSOC(t)
	res, err := Analyze(d, dl, tree, 0, 20)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(d)
	if err != nil {
		t.Fatal(err)
	}
	tm := sim.NewTiming(s, dl, tree)
	v1 := make([]logic.V, len(d.Flops))
	pis := make([]logic.V, len(d.PIs))
	for i := range v1 {
		v1[i] = logic.FromBool(i%3 == 0)
	}
	for i := range pis {
		pis[i] = logic.FromBool(i%2 == 0)
	}
	nets := s.NewNets()
	s.SetPIs(nets, pis)
	s.ApplyState(nets, v1)
	s.Propagate(nets)
	cap1 := s.CaptureState(nets)
	v2 := make([]logic.V, len(d.Flops))
	for i, f := range d.Flops {
		if d.Inst(f).Domain == 0 {
			v2[i] = cap1[i]
		} else {
			v2[i] = v1[i]
		}
	}
	simRes, err := tm.LaunchInto(nil, v1, v2, pis, 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	if simRes.LastEvent > res.MaxArrival+1e-6 {
		t.Fatalf("simulated last event %v exceeds STA bound %v", simRes.LastEvent, res.MaxArrival)
	}
	if simRes.LastEvent <= 0 {
		t.Fatal("no simulated activity")
	}
	t.Logf("STA max arrival %.2f ns, simulated STW %.2f ns (period 20)", res.MaxArrival, simRes.LastEvent)
}

func TestWorstPaths(t *testing.T) {
	d, dl, tree := buildSOC(t)
	paths, err := WorstPaths(d, dl, tree, 0, 20, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no paths")
	}
	// Sorted by slack ascending; delays consistent; paths start at a flop.
	for i, p := range paths {
		if i > 0 && p.SlackNs < paths[i-1].SlackNs {
			t.Fatal("paths not sorted by slack")
		}
		if math.Abs(p.SlackNs-(20-p.DelayNs)) > 1e-9 {
			t.Fatalf("slack %v != period - delay %v", p.SlackNs, 20-p.DelayNs)
		}
		if len(p.Insts) == 0 {
			t.Fatal("empty path trace")
		}
		launch := d.Inst(p.Insts[0])
		if !launch.IsFlop() {
			t.Fatalf("path %d does not start at a flop (%s)", i, launch.Name)
		}
		if launch.Domain != 0 {
			t.Fatal("launch flop outside the analyzed domain")
		}
	}
	if _, err := WorstPaths(d, dl, tree, 0, 20, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}
