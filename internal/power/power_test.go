package power

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"scap/internal/cell"
	"scap/internal/logic"
	"scap/internal/netlist"
	"scap/internal/parallel"
	"scap/internal/parasitic"
	"scap/internal/place"
	"scap/internal/sdf"
	"scap/internal/sim"
	"scap/internal/soc"
)

// TestMeterEndsWithPad pins the meter's layout: its last field is a
// parallel.Pad, so the next worker's meter stays off the cache line of
// the toggle count OnToggle writes. A deleted pad, or a field appended
// after it, fails here.
func TestMeterEndsWithPad(t *testing.T) {
	typ := reflect.TypeOf(Meter{})
	last := typ.Field(typ.NumField() - 1)
	if last.Type != reflect.TypeOf(parallel.Pad{}) {
		t.Fatalf("Meter's last field is %s %s, want a parallel.Pad", last.Name, last.Type)
	}
	t.Logf("Meter: %d B", typ.Size())
}

// chainDesign builds f1.Q -> INV a -> INV b -> f2.D in block 0.
func chainDesign(t *testing.T) (*netlist.Design, *sim.Simulator, *sim.Timing) {
	t.Helper()
	d := netlist.New("c", cell.New180nm())
	d.NumBlocks = 2
	d.Domains = []netlist.DomainInfo{{Name: "clk", FreqMHz: 50, PeriodNs: 20}}
	q1 := d.AddNet("q1")
	q2 := d.AddNet("q2")
	a := d.AddNet("a")
	b := d.AddNet("b")
	d.AddInst("i1", cell.Inv, []netlist.NetID{q1}, a, 0)
	d.AddInst("i2", cell.Inv, []netlist.NetID{a}, b, 1)
	f1 := d.AddInst("f1", cell.DFF, []netlist.NetID{b}, q1, 0)
	f2 := d.AddInst("f2", cell.DFF, []netlist.NetID{b}, q2, 1)
	d.SetDomain(f1, 0, false)
	d.SetDomain(f2, 0, false)
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(d)
	if err != nil {
		t.Fatal(err)
	}
	dl := sdf.Compute(d)
	return d, s, sim.NewTiming(s, dl, nil)
}

func TestMeterCountsEnergyAndSTW(t *testing.T) {
	d, _, tm := chainDesign(t)
	m := NewMeter(d)
	res, err := tm.LaunchInto(nil,
		[]logic.V{logic.Zero, logic.X}, []logic.V{logic.One, logic.X},
		nil, 20, m.OnToggle)
	if err != nil {
		t.Fatal(err)
	}
	p := m.Report(20)
	chip := p.Chip()
	// Toggles: q1 rise, a fall, b rise = 3.
	if chip.Toggles != 3 || res.Toggles != 3 {
		t.Fatalf("toggles %d / %d", chip.Toggles, res.Toggles)
	}
	vdd2 := d.Lib.VDD * d.Lib.VDD
	var f1ID, i1ID, i2ID netlist.InstID
	for i := range d.Insts {
		switch d.Insts[i].Name {
		case "f1":
			f1ID = netlist.InstID(i)
		case "i1":
			i1ID = netlist.InstID(i)
		case "i2":
			i2ID = netlist.InstID(i)
		}
	}
	wantVDD := (d.LoadCap(f1ID) + d.LoadCap(i2ID)) * vdd2 // q1 and b rise
	wantVSS := d.LoadCap(i1ID) * vdd2                     // a falls
	if !close(chip.EnergyVDD, wantVDD) || !close(chip.EnergyVSS, wantVSS) {
		t.Fatalf("energy (%v,%v), want (%v,%v)", chip.EnergyVDD, chip.EnergyVSS, wantVDD, wantVSS)
	}
	// STW must equal the last transition time and SCAP/CAP == T/STW.
	if !close(chip.STW, res.LastEvent) {
		t.Fatalf("STW %v vs last event %v", chip.STW, res.LastEvent)
	}
	if chip.SCAPVdd <= chip.CAPVdd {
		t.Fatal("SCAP not above CAP")
	}
	ratio := chip.SCAPVdd / chip.CAPVdd
	if !close(ratio, 20/chip.STW) {
		t.Fatalf("SCAP/CAP = %v, want %v", ratio, 20/chip.STW)
	}
	// Per-block split: block 0 has f1+i1 energy, block 1 has i2.
	b0, b1 := &p.Blocks[0], &p.Blocks[1]
	if !close(b0.EnergyVDD+b0.EnergyVSS, (d.LoadCap(f1ID)+d.LoadCap(i1ID))*vdd2) {
		t.Fatalf("block0 energy %v", b0.EnergyVDD+b0.EnergyVSS)
	}
	if !close(b1.EnergyVDD, d.LoadCap(i2ID)*vdd2) || b1.EnergyVSS != 0 {
		t.Fatalf("block1 energy (%v, %v)", b1.EnergyVDD, b1.EnergyVSS)
	}
	// Instance energies of both rails must sum to the chip energy.
	sum := 0.0
	for i := range p.InstEnergyVDD {
		sum += p.InstEnergyVDD[i] + p.InstEnergyVSS[i]
	}
	if !close(sum, chip.EnergyVDD+chip.EnergyVSS) {
		t.Fatalf("instance energies sum %v, chip %v", sum, chip.EnergyVDD+chip.EnergyVSS)
	}
}

func TestMeterReset(t *testing.T) {
	d, _, tm := chainDesign(t)
	m := NewMeter(d)
	if _, err := tm.LaunchInto(nil, []logic.V{logic.Zero, logic.X}, []logic.V{logic.One, logic.X}, nil, 20, m.OnToggle); err != nil {
		t.Fatal(err)
	}
	m.Reset()
	p := m.Report(20)
	if p.Chip().Toggles != 0 || p.Chip().EnergyVDD != 0 {
		t.Fatal("reset did not clear")
	}
	if p.Chip().CAPVdd != 0 || p.Chip().SCAPVdd != 0 {
		t.Fatal("zero-activity powers should be 0")
	}
}

// TestMeterSwitchedSetAcrossPatterns runs five random launches through
// one meter. After each launch the switched set must be exactly the
// instances that toggled, in ascending order, and every per-instance
// energy must equal a fresh meter's for the same launch, so nothing of
// an earlier pattern survives its Reset. Reset must leave every energy
// at zero and the switched set empty.
func TestMeterSwitchedSetAcrossPatterns(t *testing.T) {
	d, _, err := soc.Generate(soc.DefaultConfig(96))
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(d)
	if err != nil {
		t.Fatal(err)
	}
	tm := sim.NewTiming(s, sdf.Compute(d), nil)
	ls := sim.NewLaunchScratch(s)
	m := NewMeter(d)
	r := rand.New(rand.NewSource(7))
	zeroed := func(tag string) {
		t.Helper()
		if sw := m.AppendSwitched(nil); len(sw) != 0 {
			t.Fatalf("%s: %d instances still switched", tag, len(sw))
		}
		for i := range d.Insts {
			if m.RawInstEnergyVDD()[i] != 0 || m.RawInstEnergyVSS()[i] != 0 {
				t.Fatalf("%s: instance %d keeps energy %v/%v", tag, i,
					m.RawInstEnergyVDD()[i], m.RawInstEnergyVSS()[i])
			}
		}
	}
	zeroed("new meter")
	var prev []netlist.InstID
	for p := 0; p < 5; p++ {
		v1 := randomScalar(r, len(d.Flops))
		v2 := randomScalar(r, len(d.Flops))
		pis := randomScalar(r, len(d.PIs))
		toggled := map[netlist.InstID]bool{}
		onToggle := func(inst netlist.InstID, at float64, rising bool) {
			toggled[inst] = true
			m.OnToggle(inst, at, rising)
		}
		if _, err := tm.LaunchInto(ls, v1, v2, pis, 20, onToggle); err != nil {
			t.Fatal(err)
		}
		sw := m.AppendSwitched(nil)
		if len(sw) != len(toggled) || len(sw) == 0 {
			t.Fatalf("pattern %d: %d switched, %d toggled", p, len(sw), len(toggled))
		}
		for k, id := range sw {
			if !toggled[id] || k > 0 && id <= sw[k-1] {
				t.Fatalf("pattern %d: switched set %v is not the toggled instances in ascending order", p, sw)
			}
		}
		if slices.Equal(sw, prev) {
			t.Fatalf("pattern %d switched the same instances as pattern %d", p, p-1)
		}
		prev = sw
		fresh := m.Clone()
		if _, err := tm.LaunchInto(ls, v1, v2, pis, 20, fresh.OnToggle); err != nil {
			t.Fatal(err)
		}
		for i := range d.Insts {
			if m.RawInstEnergyVDD()[i] != fresh.RawInstEnergyVDD()[i] ||
				m.RawInstEnergyVSS()[i] != fresh.RawInstEnergyVSS()[i] {
				t.Fatalf("pattern %d instance %d: energy %v/%v, fresh meter %v/%v", p, i,
					m.RawInstEnergyVDD()[i], m.RawInstEnergyVSS()[i],
					fresh.RawInstEnergyVDD()[i], fresh.RawInstEnergyVSS()[i])
			}
		}
		m.Reset()
		zeroed(fmt.Sprintf("reset after pattern %d", p))
	}
}

func TestStatisticalHalvingWindowDoublesPower(t *testing.T) {
	d, _, err := soc.Generate(soc.DefaultConfig(64))
	if err != nil {
		t.Fatal(err)
	}
	fp, _ := place.Place(d, 1)
	if _, err := parasitic.Extract(d, fp, parasitic.DefaultParams()); err != nil {
		t.Fatal(err)
	}
	full := Statistical(d, 0.3, 20)
	half := Statistical(d, 0.3, 10)
	for i := range full.Blocks {
		f, h := &full.Blocks[i], &half.Blocks[i]
		if f.PowerVddMW <= 0 {
			t.Fatalf("block %d zero power", i)
		}
		if !close(h.PowerVddMW, 2*f.PowerVddMW) || !close(h.PowerVssMW, 2*f.PowerVssMW) {
			t.Fatalf("halving window did not double power: %v vs %v", h.PowerVddMW, f.PowerVddMW)
		}
	}
	// Chip power equals the block sum (all SOC instances are in blocks).
	sum := 0.0
	for i := 0; i < d.NumBlocks; i++ {
		sum += full.Blocks[i].PowerVddMW
	}
	if !close(sum, full.Chip().PowerVddMW) {
		t.Fatalf("blocks sum %v, chip %v", sum, full.Chip().PowerVddMW)
	}
	// B5 must be the hottest block (largest clka share).
	for b := 0; b < d.NumBlocks; b++ {
		if b != soc.B5 && full.Blocks[b].PowerVddMW >= full.Blocks[soc.B5].PowerVddMW {
			t.Fatalf("B%d (%.2f mW) hotter than B5 (%.2f mW)",
				b+1, full.Blocks[b].PowerVddMW, full.Blocks[soc.B5].PowerVddMW)
		}
	}
}

func TestStatCurrentsMatchPower(t *testing.T) {
	d, _, err := soc.Generate(soc.DefaultConfig(64))
	if err != nil {
		t.Fatal(err)
	}
	fp, _ := place.Place(d, 1)
	if _, err := parasitic.Extract(d, fp, parasitic.DefaultParams()); err != nil {
		t.Fatal(err)
	}
	cur := StatCurrents(d, 0.3, 20)
	// Σ I·VDD must equal total power (VDD+VSS): P(mW) = I(mA)·V(V).
	totalI := 0.0
	for _, c := range cur {
		totalI += c
	}
	prof := Statistical(d, 0.3, 20)
	want := prof.Chip().PowerVddMW + prof.Chip().PowerVssMW
	if !close(totalI*d.Lib.VDD, want) {
		t.Fatalf("ΣI·V = %v, total power %v", totalI*d.Lib.VDD, want)
	}
	if z := StatCurrents(d, 0.3, 0); z[0] != 0 {
		t.Fatal("zero window should give zero currents")
	}
}

func TestStatCurrentsInto(t *testing.T) {
	d, _, err := soc.Generate(soc.DefaultConfig(96))
	if err != nil {
		t.Fatal(err)
	}
	fp, _ := place.Place(d, 1)
	if _, err := parasitic.Extract(d, fp, parasitic.DefaultParams()); err != nil {
		t.Fatal(err)
	}
	want := StatCurrents(d, 0.3, 20)
	buf := make([]float64, d.NumInsts())
	for i := range buf {
		buf[i] = 99 // stale content must be overwritten
	}
	got := StatCurrentsInto(buf, d, 0.3, 20)
	if &got[0] != &buf[0] {
		t.Fatal("buffer not reused")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("inst %d: %v != %v", i, got[i], want[i])
		}
	}
	// Wrong-size buffers are replaced; zero windows clear stale content.
	if small := StatCurrentsInto(make([]float64, 2), d, 0.3, 20); len(small) != d.NumInsts() {
		t.Fatalf("undersized buffer left %d entries", len(small))
	}
	z := StatCurrentsInto(got, d, 0.3, 0)
	for i := range z {
		if z[i] != 0 {
			t.Fatal("zero window should clear the buffer")
		}
	}
}

func TestInstCurrentsConversion(t *testing.T) {
	d, _, tm := chainDesign(t)
	m := NewMeter(d)
	if _, err := tm.LaunchInto(nil, []logic.V{logic.Zero, logic.X}, []logic.V{logic.One, logic.X}, nil, 20, m.OnToggle); err != nil {
		t.Fatal(err)
	}
	p := m.Report(20)
	energy := make([]float64, len(p.InstEnergyVDD))
	for i := range energy {
		energy[i] = p.InstEnergyVDD[i] + p.InstEnergyVSS[i]
	}
	cur := InstCurrents(d, energy, p.Chip().STW)
	totalI := 0.0
	for _, c := range cur {
		totalI += c
	}
	// ΣI·VDD == total SCAP power (VDD+VSS rails combined).
	want := p.Chip().SCAPVdd + p.Chip().SCAPVss
	if !close(totalI*d.Lib.VDD, want) {
		t.Fatalf("ΣI·V = %v, want %v", totalI*d.Lib.VDD, want)
	}
	if z := InstCurrents(d, energy, 0); z[0] != 0 {
		t.Fatal("zero window should give zero currents")
	}
}

func close(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(b))
}

func TestWaveformBinsEnergy(t *testing.T) {
	d, _, tm := chainDesign(t)
	m := NewMeter(d)
	m.EnableWaveform(0.5)
	if _, err := tm.LaunchInto(nil, []logic.V{logic.Zero, logic.X}, []logic.V{logic.One, logic.X},
		nil, 20, m.OnToggle); err != nil {
		t.Fatal(err)
	}
	p := m.Report(20)
	w := m.WaveformOf()
	if w == nil {
		t.Fatal("waveform disabled")
	}
	sum := 0.0
	for _, e := range w.EnergyFJ {
		sum += e
	}
	total := p.Chip().EnergyVDD + p.Chip().EnergyVSS
	if !close(sum, total) {
		t.Fatalf("binned energy %v, total %v", sum, total)
	}
	// Peak power must be at least the SCAP average and the series must
	// match PeakMW.
	peak := w.PeakMW()
	series := w.PowerMW()
	maxS := 0.0
	for _, v := range series {
		if v > maxS {
			maxS = v
		}
	}
	if !close(peak, maxS) {
		t.Fatalf("PeakMW %v, series max %v", peak, maxS)
	}
	// The peak bin power can never be below the all-cycle average (the
	// mean over bins is bounded by the max).
	cap := p.Chip().CAPVdd + p.Chip().CAPVss
	if peak < cap {
		t.Fatalf("peak %v below CAP %v", peak, cap)
	}
	// Disabled by default.
	m2 := NewMeter(d)
	if m2.WaveformOf() != nil {
		t.Fatal("waveform should be off by default")
	}
	// Disabling again.
	m.EnableWaveform(0)
	if m.WaveformOf() != nil {
		t.Fatal("waveform not disabled")
	}
}
