package delayscale

import (
	"math"
	"testing"

	"scap/internal/clocktree"
	"scap/internal/logic"
	"scap/internal/netlist"
	"scap/internal/parasitic"
	"scap/internal/pgrid"
	"scap/internal/place"
	"scap/internal/sdf"
	"scap/internal/sim"
	"scap/internal/soc"
)

type world struct {
	d     *netlist.Design
	fp    *place.Floorplan
	s     *sim.Simulator
	dl    *sdf.Delays
	tree  *clocktree.Tree
	g     *pgrid.Grid
	kvolt float64
}

func build(t *testing.T) *world {
	t.Helper()
	d, _, err := soc.Generate(soc.DefaultConfig(64))
	if err != nil {
		t.Fatal(err)
	}
	fp, err := place.Place(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parasitic.Extract(d, fp, parasitic.DefaultParams()); err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(d)
	if err != nil {
		t.Fatal(err)
	}
	g, err := pgrid.New(fp, pgrid.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return &world{
		d: d, fp: fp, s: s,
		dl:    sdf.Compute(d),
		tree:  clocktree.Build(d, fp, clocktree.DefaultParams(), 5),
		g:     g,
		kvolt: d.Lib.KVolt,
	}
}

// hotSolution builds a synthetic IR-drop map with a hot spot over B5.
func hotSolution(w *world, drop float64) *pgrid.Solution {
	n := w.g.P.N
	sol := &pgrid.Solution{N: n, Drop: make([]float64, n*n)}
	r := w.fp.Blocks[soc.B5]
	for node := range sol.Drop {
		x, y := w.g.NodeXY(node)
		if r.Contains(x, y) {
			sol.Drop[node] = drop
			if drop > sol.Worst {
				sol.Worst = drop
			}
		}
	}
	return sol
}

func TestScaleDelaysAppliesPaperFormula(t *testing.T) {
	w := build(t)
	sol := hotSolution(w, 0.1)
	scaled := ScaleDelays(w.d, w.dl, w.g, sol, 0.9)
	for i := range w.d.Insts {
		inst := &w.d.Insts[i]
		want := w.dl.Rise[i]
		if w.fp.Blocks[soc.B5].Contains(inst.X, inst.Y) {
			want *= 1.09
		}
		if math.Abs(scaled.Rise[i]-want) > 1e-9*want {
			t.Fatalf("inst %s: scaled %v, want %v", inst.Name, scaled.Rise[i], want)
		}
	}
	// A negative droop (overshoot) clamps to zero: no cell speeds up.
	scaled = ScaleDelays(w.d, w.dl, w.g, hotSolution(w, -0.2), 0.9)
	for i := range w.d.Insts {
		if scaled.Rise[i] != w.dl.Rise[i] || scaled.Fall[i] != w.dl.Fall[i] {
			t.Fatalf("inst %s: overshoot scaled %v/%v, want nominal %v/%v", w.d.Insts[i].Name,
				scaled.Rise[i], scaled.Fall[i], w.dl.Rise[i], w.dl.Fall[i])
		}
	}
}

func TestScaledClockSlowsOnlyAffectedRoutes(t *testing.T) {
	w := build(t)
	sol := hotSolution(w, 0.2)
	sc := NewScaledClock(w.d, w.tree, w.g, sol, 0.9)
	slowed := 0
	for _, f := range w.d.Flops {
		nom, der := w.tree.Arrival(f), sc.Arrival(f)
		if der < nom-1e-9 {
			t.Fatalf("flop %d clock sped up", f)
		}
		if der > nom+1e-9 {
			slowed++
		}
	}
	if slowed == 0 {
		t.Fatal("no clock route crosses the hot region?")
	}
}

func TestCompareZeroDropIsNeutral(t *testing.T) {
	w := build(t)
	n := w.g.P.N
	sol := &pgrid.Solution{N: n, Drop: make([]float64, n*n)}
	v1, v2, pis := launchVectors(w)
	nom := nominal(t, w, nil, v1, v2, pis)
	imp, err := Compare(w.s, w.dl, w.tree, w.g, sol, w.kvolt, nom, v1, v2, pis, 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	if imp.Slowed != 0 || imp.Sped != 0 {
		t.Fatalf("zero drop changed %d+%d endpoints", imp.Slowed, imp.Sped)
	}
	if imp.MaxSlowdownFrac > 1e-12 {
		t.Fatalf("zero drop slowdown %v", imp.MaxSlowdownFrac)
	}
}

func TestCompareHotB5SlowsItsEndpoints(t *testing.T) {
	w := build(t)
	sol := hotSolution(w, 0.25)
	v1, v2, pis := launchVectors(w)
	// Exercise the shared-scratch path: the nominal Result lives in the
	// scratch the derated run reuses.
	ls := sim.NewLaunchScratch(w.s)
	nom := nominal(t, w, ls, v1, v2, pis)
	imp, err := Compare(w.s, w.dl, w.tree, w.g, sol, w.kvolt, nom, v1, v2, pis, 20, ls)
	if err != nil {
		t.Fatal(err)
	}
	if imp.Slowed == 0 {
		t.Fatal("hot spot slowed nothing")
	}
	if imp.MaxSlowdownFrac <= 0 || imp.MaxSlowdownFrac > 0.5 {
		t.Fatalf("max slowdown %v implausible", imp.MaxSlowdownFrac)
	}
	// The hot-block endpoints must dominate the slowdown; at least one B5
	// endpoint grows. And because the clock tree also slows, some endpoint
	// should shrink (the paper's Region 2) — tolerate zero at tiny scales.
	slowedB5 := 0
	for i := range imp.Endpoints {
		ep := &imp.Endpoints[i]
		if !ep.Active {
			if ep.Nominal != 0 || ep.Scaled != 0 {
				t.Fatal("inactive endpoint carries delay")
			}
			continue
		}
		if ep.Block == soc.B5 && ep.Delta() > 1e-3 {
			slowedB5++
		}
	}
	if slowedB5 == 0 {
		t.Fatal("no B5 endpoint slowed despite hot B5")
	}
	t.Logf("slowed %d, sped %d, max slowdown %.1f%%", imp.Slowed, imp.Sped, 100*imp.MaxSlowdownFrac)
}

// nominal launches v1/v2/pis on the nominal delays and clock tree at a
// 20 ns period: the nominal run Compare takes.
func nominal(t *testing.T, w *world, ls *sim.LaunchScratch, v1, v2, pis []logic.V) *sim.Result {
	t.Helper()
	res, err := sim.NewTiming(w.s, w.dl, w.tree).LaunchInto(ls, v1, v2, pis, 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// launchVectors builds a deterministic clka LOC launch.
func launchVectors(w *world) (v1, v2, pis []logic.V) {
	d, s := w.d, w.s
	v1 = make([]logic.V, len(d.Flops))
	pis = make([]logic.V, len(d.PIs))
	for i := range v1 {
		v1[i] = logic.FromBool(i%2 == 0)
	}
	for i := range pis {
		pis[i] = logic.FromBool(i%3 == 0)
	}
	nets := s.NewNets()
	s.SetPIs(nets, pis)
	s.ApplyState(nets, v1)
	s.Propagate(nets)
	cap1 := s.CaptureState(nets)
	v2 = make([]logic.V, len(d.Flops))
	for i, f := range d.Flops {
		if d.Inst(f).Domain == 0 {
			v2[i] = cap1[i]
		} else {
			v2[i] = v1[i]
		}
	}
	return v1, v2, pis
}
