package atpg

import (
	"reflect"
	"testing"

	"scap/internal/cell"
	"scap/internal/fault"
	"scap/internal/logic"
	"scap/internal/netlist"
	"scap/internal/parallel"
	"scap/internal/sim"
)

// TestEngineEndsWithPad pins the engine's layout: its last field is a
// parallel.Pad, so a generation worker's clone allocated right after
// another engine stays off the cache lines of that engine's hot fields.
// A deleted pad, or a field appended after it, fails here.
func TestEngineEndsWithPad(t *testing.T) {
	typ := reflect.TypeOf(engine{})
	last := typ.Field(typ.NumField() - 1)
	if last.Type != reflect.TypeOf(parallel.Pad{}) {
		t.Fatalf("engine's last field is %s %s, want a parallel.Pad", last.Name, last.Type)
	}
	t.Logf("engine: %d B", typ.Size())
}

func TestEngineJustifiesAndTree(t *testing.T) {
	d := netlist.New("tree", cell.New180nm())
	d.NumBlocks = 1
	d.Domains = []netlist.DomainInfo{{Name: "clk", FreqMHz: 50, PeriodNs: 20}}
	n := map[string]netlist.NetID{}
	for _, name := range []string{"q0", "q1", "q2", "qo", "qh", "qv", "i0", "i1", "i2", "a1", "a2", "hv"} {
		n[name] = d.AddNet(name)
	}
	d.AddInst("inv0", cell.Inv, []netlist.NetID{n["q0"]}, n["i0"], 0)
	d.AddInst("inv1", cell.Inv, []netlist.NetID{n["q1"]}, n["i1"], 0)
	d.AddInst("inv2", cell.Inv, []netlist.NetID{n["q2"]}, n["i2"], 0)
	d.AddInst("and1", cell.And2, []netlist.NetID{n["q0"], n["q1"]}, n["a1"], 0)
	d.AddInst("and2", cell.And2, []netlist.NetID{n["a1"], n["q2"]}, n["a2"], 0)
	d.AddInst("invh", cell.Inv, []netlist.NetID{n["qh"]}, n["hv"], 0)
	flopIdx := map[string]int{}
	add := func(name string, dnet, qnet netlist.NetID) {
		id := d.AddInst(name, cell.DFF, []netlist.NetID{dnet}, qnet, 0)
		d.SetDomain(id, 0, false)
		flopIdx[name] = len(d.Flops) - 1
	}
	add("t0", n["i0"], n["q0"])
	add("t1", n["i1"], n["q1"])
	add("t2", n["i2"], n["q2"])
	add("fo", n["a2"], n["qo"])
	add("h", n["qh"], n["qh"])  // D = Q: holds forever
	add("fh", n["hv"], n["qv"]) // observes hv
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(d)
	if err != nil {
		t.Fatal(err)
	}

	eng, err := newEngine(s, engineConfig{dom: 0, limit: 64})
	if err != nil {
		t.Fatal(err)
	}

	// STR on a1: needs frame1 t0=t1=0 (so frame2 q0=q1=1 -> a1 rises) and
	// frame1 t2=0 for propagation through and2.
	cube, disp := eng.generate(&fault.Fault{Net: n["a1"], Type: fault.STR})
	if disp != genSuccess {
		t.Fatalf("STR a1 not generated: %v", disp)
	}
	for _, name := range []string{"t0", "t1", "t2"} {
		if v, ok := cube.State[flopIdx[name]]; !ok || v != logic.Zero {
			t.Fatalf("STR a1 cube: %s = %v (want 0); cube %v", name, v, cube.State)
		}
	}

	// STF on a1: frame1 t0=t1=1, propagation still needs frame2 q2=1 i.e.
	// frame1 t2=0.
	cube, disp = eng.generate(&fault.Fault{Net: n["a1"], Type: fault.STF})
	if disp != genSuccess {
		t.Fatalf("STF a1 not generated: %v", disp)
	}
	if v := cube.State[flopIdx["t0"]]; v != logic.One {
		t.Fatalf("STF a1: t0 = %v, want 1", v)
	}
	if v := cube.State[flopIdx["t1"]]; v != logic.One {
		t.Fatalf("STF a1: t1 = %v, want 1", v)
	}
	if v := cube.State[flopIdx["t2"]]; v != logic.Zero {
		t.Fatalf("STF a1: t2 = %v, want 0", v)
	}

	// hv sits behind a hold flop: its value cannot change between frames,
	// so both transition faults are provably untestable.
	if _, disp := eng.generate(&fault.Fault{Net: n["hv"], Type: fault.STR}); disp != genUntestable {
		t.Fatalf("STR hv disposition %v, want untestable", disp)
	}
	if _, disp := eng.generate(&fault.Fault{Net: n["hv"], Type: fault.STF}); disp != genUntestable {
		t.Fatalf("STF hv disposition %v, want untestable", disp)
	}
}

// TestGenOneReturnsToRest runs genOne, with dynamic compaction, over a
// sample of scale-96 faults and checks after every call that the engine is
// back in its resting state: no trail, no decisions, no installed fault,
// the packed rails of a freshly built engine, and empty dirty, cone and
// region sets.
// Pinning the base and undoing to a trail mark is only sound if every call
// leaves the engine exactly where it found it.
func TestGenOneReturnsToRest(t *testing.T) {
	r := newRig(t, 96)
	cfg := runConfig(r.d, r.sc, Options{Dom: 0, BacktrackLimit: 64}, nil)
	eng, err := newEngine(r.s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := newEngine(r.s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var subset []int
	for _, fi := range r.l.InDomain(0) {
		if r.d.Nets[r.l.Faults[fi].Net].PI < 0 {
			subset = append(subset, fi)
		}
	}
	const nLanes = 4
	calls, secondaries := 0, 0
	for pos := 0; pos < len(subset); pos += 3 {
		out := genOne(eng, r.l, subset, pos, pos%nLanes, nLanes, pos+1, 32, 0)
		calls++
		secondaries += len(out.secondaries)
		if len(eng.trail) != 0 || len(eng.decs) != 0 || eng.site != netlist.NoNet {
			t.Fatalf("fault %s: %d trail entries, %d decisions, site %d after genOne",
				r.l.String(subset[pos]), len(eng.trail), len(eng.decs), eng.site)
		}
		if n, ok := firstDiff(eng.vals, fresh.vals); ok {
			t.Fatalf("fault %s: net %s rests at %s, fresh engine %s",
				r.l.String(subset[pos]), r.d.Nets[n].Name, rails(eng.vals[n]), rails(fresh.vals[n]))
		}
		if err := eng.checkCleared(); err != nil {
			t.Fatalf("fault %s: %v", r.l.String(subset[pos]), err)
		}
	}
	t.Logf("%d genOne calls merged %d secondaries", calls, secondaries)
	if secondaries == 0 {
		t.Fatal("no secondary was merged: the pinned-base path did not run")
	}
}
