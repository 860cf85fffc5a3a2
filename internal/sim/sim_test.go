package sim

import (
	"math/rand"
	"slices"
	"testing"

	"scap/internal/cell"
	"scap/internal/logic"
	"scap/internal/netlist"
	"scap/internal/parasitic"
	"scap/internal/place"
	"scap/internal/sdf"
	"scap/internal/soc"
)

// chain builds: f1.Q -> INV a -> INV b -> INV c -> f2.D, PO on c.
func chain(t *testing.T) (*netlist.Design, *Simulator) {
	t.Helper()
	d := netlist.New("chain", cell.New180nm())
	d.NumBlocks = 1
	d.Domains = []netlist.DomainInfo{{Name: "clk", FreqMHz: 50, PeriodNs: 20}}
	q1 := d.AddNet("q1")
	q2 := d.AddNet("q2")
	a := d.AddNet("a")
	b := d.AddNet("b")
	c := d.AddNet("c")
	d.AddInst("i1", cell.Inv, []netlist.NetID{q1}, a, 0)
	d.AddInst("i2", cell.Inv, []netlist.NetID{a}, b, 0)
	d.AddInst("i3", cell.Inv, []netlist.NetID{b}, c, 0)
	f1 := d.AddInst("f1", cell.DFF, []netlist.NetID{c}, q1, 0)
	f2 := d.AddInst("f2", cell.DFF, []netlist.NetID{c}, q2, 0)
	d.SetDomain(f1, 0, false)
	d.SetDomain(f2, 0, false)
	d.MarkPO(c)
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
	s, err := New(d)
	if err != nil {
		t.Fatal(err)
	}
	return d, s
}

func TestPropagateChain(t *testing.T) {
	d, s := chain(t)
	nets := s.NewNets()
	s.ApplyState(nets, []logic.V{logic.Zero, logic.X})
	s.Propagate(nets)
	var a, b, c logic.V
	for i := range d.Nets {
		switch d.Nets[i].Name {
		case "a":
			a = nets[i]
		case "b":
			b = nets[i]
		case "c":
			c = nets[i]
		}
	}
	if a != logic.One || b != logic.Zero || c != logic.One {
		t.Fatalf("chain values a=%v b=%v c=%v", a, b, c)
	}
	st := s.CaptureState(nets)
	if st[0] != logic.One || st[1] != logic.One {
		t.Fatalf("captured %v", st)
	}
}

func TestCaptureHonorsScanEnable(t *testing.T) {
	d := netlist.New("scan", cell.New180nm())
	d.NumBlocks = 1
	d.Domains = []netlist.DomainInfo{{Name: "clk", FreqMHz: 50, PeriodNs: 20}}
	se := d.AddPI("se")
	si := d.AddPI("si")
	q := d.AddNet("q")
	dn := d.AddNet("d")
	d.AddInst("inv", cell.Inv, []netlist.NetID{q}, dn, 0)
	f := d.AddInst("f", cell.DFF, []netlist.NetID{dn}, q, 0)
	d.SetDomain(f, 0, false)
	d.ConvertToScan(f, si, se)
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
	s, err := New(d)
	if err != nil {
		t.Fatal(err)
	}
	nets := s.NewNets()
	s.ApplyState(nets, []logic.V{logic.Zero}) // Q=0 -> D=1
	// Functional mode: capture D.
	s.SetPIs(nets, []logic.V{logic.Zero, logic.Zero}) // se=0, si=0
	s.Propagate(nets)
	if st := s.CaptureState(nets); st[0] != logic.One {
		t.Fatalf("SE=0 captured %v, want D=1", st[0])
	}
	// Shift mode: capture SI.
	s.SetPIs(nets, []logic.V{logic.One, logic.Zero}) // se=1, si=0
	s.Propagate(nets)
	if st := s.CaptureState(nets); st[0] != logic.Zero {
		t.Fatalf("SE=1 captured %v, want SI=0", st[0])
	}
}

func socSim(t *testing.T) (*netlist.Design, *Simulator) {
	t.Helper()
	d, _, err := soc.Generate(soc.DefaultConfig(64))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(d)
	if err != nil {
		t.Fatal(err)
	}
	return d, s
}

// TestGateLoadsAscending checks the gate-only fanout list against the
// netlist: each net's row holds exactly the positions of the gates that
// read it, each once, in ascending order, and a gate's loads all sit
// above it.
func TestGateLoadsAscending(t *testing.T) {
	d, s := socSim(t)
	pos := map[netlist.InstID]int32{}
	for p := range s.gates {
		pos[s.gates[p].id] = int32(p)
	}
	for n := range d.Nets {
		var want []int32
		for _, ld := range d.Nets[n].Loads {
			if p, ok := pos[ld.Inst]; ok && !slices.Contains(want, p) {
				want = append(want, p)
			}
		}
		slices.Sort(want)
		got := s.GateLoads(netlist.NetID(n))
		if !slices.Equal(got, want) {
			t.Fatalf("net %s: gate loads %v, want %v", d.Nets[n].Name, got, want)
		}
	}
	for p := range s.gates {
		if loads := s.GateLoads(s.gates[p].out); len(loads) > 0 && int(loads[0]) <= p {
			t.Fatalf("gate %d drives position %d", p, loads[0])
		}
	}
}

// TestParallelMatchesScalar is the key cross-check between the two
// zero-delay simulators on the full SOC.
func TestParallelMatchesScalar(t *testing.T) {
	d, s := socSim(t)
	r := rand.New(rand.NewSource(3))

	netsW := s.NewNetsW()
	piW := make([]logic.Word, len(d.PIs))
	stW := make([]logic.Word, len(d.Flops))
	for i := range piW {
		known := r.Uint64() | 0xffffffff // mix of defined and X slots
		ones := r.Uint64() & known
		piW[i] = logic.Word{Zero: known &^ ones, One: ones}
	}
	for i := range stW {
		known := ^uint64(0)
		ones := r.Uint64()
		stW[i] = logic.Word{Zero: known &^ ones, One: ones}
	}
	s.SetPIsW(netsW, piW)
	s.ApplyStateW(netsW, stW)
	s.PropagateW(netsW)
	capW := s.CaptureStateWInto(make([]logic.Word, len(d.Flops)), netsW)

	for slot := uint(0); slot < 64; slot += 13 {
		nets := s.NewNets()
		pis := make([]logic.V, len(d.PIs))
		st := make([]logic.V, len(d.Flops))
		for i := range pis {
			pis[i] = piW[i].Get(slot)
		}
		for i := range st {
			st[i] = stW[i].Get(slot)
		}
		s.SetPIs(nets, pis)
		s.ApplyState(nets, st)
		s.Propagate(nets)
		capS := s.CaptureState(nets)
		for i := range netsW {
			if netsW[i].Get(slot) != nets[i] {
				t.Fatalf("slot %d net %s: parallel %v scalar %v",
					slot, d.Nets[i].Name, netsW[i].Get(slot), nets[i])
			}
		}
		for i := range capS {
			if capW[i].Get(slot) != capS[i] {
				t.Fatalf("slot %d flop %d capture mismatch", slot, i)
			}
		}
	}
}

func delaysFor(t *testing.T, d *netlist.Design) *sdf.Delays {
	t.Helper()
	fp, err := place.Place(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parasitic.Extract(d, fp, parasitic.DefaultParams()); err != nil {
		t.Fatal(err)
	}
	return sdf.Compute(d)
}

func TestTimingChainArrival(t *testing.T) {
	d, s := chain(t)
	dl := delaysFor(t, d)
	tm := NewTiming(s, dl, nil)
	// v1: q1=0 (a=1,b=0,c=1); launch q1 -> 1.
	v1 := []logic.V{logic.Zero, logic.One}
	v2 := []logic.V{logic.One, logic.One}
	res, err := tm.LaunchInto(nil, v1, v2, nil, 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Expected: q1 rises at 0; a falls after i1 fall delay; b rises; c falls.
	var i1, i2, i3 netlist.InstID
	for i := range d.Insts {
		switch d.Insts[i].Name {
		case "i1":
			i1 = netlist.InstID(i)
		case "i2":
			i2 = netlist.InstID(i)
		case "i3":
			i3 = netlist.InstID(i)
		}
	}
	want := dl.Fall[i1] + dl.Rise[i2] + dl.Fall[i3]
	if res.Toggles != 4 { // q1, a, b, c
		t.Fatalf("Toggles = %d, want 4", res.Toggles)
	}
	if !res.EndpointActive[0] || !res.EndpointActive[1] {
		t.Fatal("endpoints inactive")
	}
	if !approx(res.EndpointArrival[0], want) {
		t.Fatalf("endpoint arrival %v, want %v", res.EndpointArrival[0], want)
	}
	if !approx(res.STW, want) {
		t.Fatalf("STW %v, want %v", res.STW, want)
	}
}

func TestTimingGlitchPropagation(t *testing.T) {
	// f.Q -> a ; INV(a) -> b ; XOR(a,b) -> x -> f2.D.
	// A launch transition on a produces a glitch on x (two toggles).
	d := netlist.New("glitch", cell.New180nm())
	d.NumBlocks = 1
	d.Domains = []netlist.DomainInfo{{Name: "clk", FreqMHz: 50, PeriodNs: 20}}
	q := d.AddNet("q")
	q2 := d.AddNet("q2")
	b := d.AddNet("b")
	x := d.AddNet("x")
	d.AddInst("inv", cell.Inv, []netlist.NetID{q}, b, 0)
	d.AddInst("xor", cell.Xor2, []netlist.NetID{q, b}, x, 0)
	f1 := d.AddInst("f1", cell.DFF, []netlist.NetID{x}, q, 0)
	f2 := d.AddInst("f2", cell.DFF, []netlist.NetID{x}, q2, 0)
	d.SetDomain(f1, 0, false)
	d.SetDomain(f2, 0, false)
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
	s, err := New(d)
	if err != nil {
		t.Fatal(err)
	}
	dl := delaysFor(t, d)
	tm := NewTiming(s, dl, nil)
	tm.MinPulseNs = -1 // pure transport delay: glitches propagate
	res, err := tm.LaunchInto(nil, []logic.V{logic.Zero, logic.X}, []logic.V{logic.One, logic.X}, nil, 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Toggles: q (1), b (1), x glitch (2) = 4.
	if res.Toggles != 4 {
		t.Fatalf("Toggles = %d, want 4 (glitch)", res.Toggles)
	}
	// x must settle back to its initial steady value (xor of complements = 1).
	if res.Nets[x] != logic.One {
		t.Fatalf("x settled to %v", res.Nets[x])
	}

	// With the inertial filter at its default, the same narrow pulse is
	// swallowed by the xor's own switching window when it is narrower than
	// the stage delay; the settled value must be unchanged either way.
	tmI := NewTiming(s, dl, nil)
	resI, err := tmI.LaunchInto(nil, []logic.V{logic.Zero, logic.X}, []logic.V{logic.One, logic.X}, nil, 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resI.Toggles > res.Toggles {
		t.Fatalf("inertial filter increased toggles: %d > %d", resI.Toggles, res.Toggles)
	}
	if resI.Nets[x] != logic.One {
		t.Fatalf("inertial run settled x to %v", resI.Nets[x])
	}
}

// TestTimingSettlesToZeroDelayState: after all events drain, the timing
// simulator's net values must equal a zero-delay propagation of the launch
// state — transport-delay simulation converges to the steady state.
func TestTimingSettlesToZeroDelayState(t *testing.T) {
	d, s := socSim(t)
	dl := delaysFor(t, d)
	tm := NewTiming(s, dl, nil)
	r := rand.New(rand.NewSource(11))

	v1 := make([]logic.V, len(d.Flops))
	pis := make([]logic.V, len(d.PIs))
	for i := range v1 {
		v1[i] = logic.FromBool(r.Intn(2) == 1)
	}
	for i := range pis {
		pis[i] = logic.FromBool(r.Intn(2) == 1)
	}
	// LOC-style launch: v2 is the captured response of v1.
	nets := s.NewNets()
	s.SetPIs(nets, pis)
	s.ApplyState(nets, v1)
	s.Propagate(nets)
	v2 := s.CaptureState(nets)

	res, err := tm.LaunchInto(nil, v1, v2, pis, 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Toggles == 0 {
		t.Fatal("no switching activity on random launch")
	}
	if res.Suppressed != 0 {
		t.Logf("suppressed %d events", res.Suppressed)
	}

	want := s.NewNets()
	s.SetPIs(want, pis)
	s.ApplyState(want, v2)
	s.Propagate(want)
	mismatch := 0
	for i := range want {
		if res.Nets[i] != want[i] {
			mismatch++
		}
	}
	if mismatch != 0 {
		t.Fatalf("%d nets did not settle to the zero-delay state", mismatch)
	}
	if res.STW <= 0 || res.STW > 20 {
		t.Fatalf("STW = %v ns, outside (0, 20]", res.STW)
	}
}

func TestTimingToggleCallbackAndCounts(t *testing.T) {
	d, s := chain(t)
	dl := delaysFor(t, d)
	tm := NewTiming(s, dl, nil)
	var got int
	res, err := tm.LaunchInto(nil, []logic.V{logic.Zero, logic.One}, []logic.V{logic.One, logic.One}, nil, 20,
		func(inst netlist.InstID, tt float64, rising bool) {
			got++
			if tt < 0 {
				t.Errorf("negative toggle time %v", tt)
			}
			_ = d.Insts[inst]
		})
	if err != nil {
		t.Fatal(err)
	}
	if got != res.Toggles {
		t.Fatalf("callback saw %d toggles, result says %d", got, res.Toggles)
	}
}

func TestTimingEventCapSuppresses(t *testing.T) {
	d, s := socSim(t)
	dl := delaysFor(t, d)
	tm := NewTiming(s, dl, nil)
	tm.MaxEventsPerNet = 1
	r := rand.New(rand.NewSource(2))
	v1 := make([]logic.V, len(d.Flops))
	pis := make([]logic.V, len(d.PIs))
	for i := range v1 {
		v1[i] = logic.FromBool(r.Intn(2) == 1)
	}
	for i := range pis {
		pis[i] = logic.FromBool(r.Intn(2) == 1)
	}
	nets := s.NewNets()
	s.SetPIs(nets, pis)
	s.ApplyState(nets, v1)
	s.Propagate(nets)
	v2 := s.CaptureState(nets)
	res, err := tm.LaunchInto(nil, v1, v2, pis, 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Suppressed == 0 {
		t.Skip("no suppression triggered at this scale")
	}
}

func TestTimingInputValidation(t *testing.T) {
	d, s := chain(t)
	dl := delaysFor(t, d)
	tm := NewTiming(s, dl, nil)
	if _, err := tm.LaunchInto(nil, []logic.V{logic.Zero}, []logic.V{logic.One, logic.One}, nil, 20, nil); err == nil {
		t.Fatal("short v1 accepted")
	}
	if _, err := tm.LaunchInto(nil, []logic.V{logic.Zero, logic.One}, []logic.V{logic.One, logic.One},
		[]logic.V{logic.One}, 20, nil); err == nil {
		t.Fatal("wrong pi length accepted")
	}
	_ = d
}

func approx(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-9*(1+b)
}
