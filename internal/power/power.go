// Package power implements the paper's power models:
//
//   - CAP, the cycle average power: CAP_j = Σ C_i · VDD² / T — switching
//     energy of pattern j averaged over the full tester cycle T;
//   - SCAP, the switching cycle average power (the paper's contribution):
//     SCAP_j = Σ C_i · VDD² / STW_j — the same energy averaged over the
//     switching time frame window, the span from the launch clock edge to
//     the last transition (≈ the longest sensitized path delay);
//   - the vector-less statistical model used for the per-block functional
//     power/IR-drop thresholds of Table 3.
//
// The Meter streams toggles straight from the timing simulator (the role
// of the paper's VCS PLI), so no VCD file is materialized. Rising
// transitions charge from the VDD rails, falling ones discharge into VSS;
// the two are accounted separately, matching the paper's per-network
// columns.
//
// Units: capacitance fF, voltage V, time ns, energy fJ, power mW
// (1 fJ/ns = 1 µW = 1e-3 mW), current mA.
package power

import (
	"scap/internal/netlist"
	"scap/internal/obs"
)

// Meter observability: OnToggle sits in the timing simulator's event
// loop, so toggles are counted in a meter-local field and flushed to
// the shared counter once per pattern (on Reset and ReportBlocks, or
// FlushToggles after a meter's last pattern).
var (
	cMeterResets   = obs.NewCounter("power.meter_resets")
	cTogglesMeterd = obs.NewCounter("power.toggles_metered")
)

// Rail selects the VDD or VSS accounting.
type Rail uint8

// Rails.
const (
	VDD Rail = iota
	VSS
)

// String names the rail.
func (r Rail) String() string {
	if r == VDD {
		return "VDD"
	}
	return "VSS"
}

// BlockPower is the per-block switching profile of one pattern.
type BlockPower struct {
	Block   int // block index; the last entry is the whole chip
	Toggles int
	// EnergyVDD/EnergyVSS are the switched energies (fJ) drawn from VDD
	// (rising edges) and dumped into VSS (falling edges).
	EnergyVDD, EnergyVSS float64
	// First and Last are the block's first/last transition times (ns after
	// the launch edge); STW = Last (the paper measures the window from the
	// launch edge, since the longest affected path defines it).
	First, Last float64
	STW         float64
	// CAPVdd/SCAPVdd (and VSS) are the average powers in mW.
	CAPVdd, CAPVss   float64
	SCAPVdd, SCAPVss float64
}

// CAP returns the rail's cycle average power in mW.
func (b *BlockPower) CAP(r Rail) float64 {
	if r == VDD {
		return b.CAPVdd
	}
	return b.CAPVss
}

// SCAP returns the rail's switching cycle average power in mW.
func (b *BlockPower) SCAP(r Rail) float64 {
	if r == VDD {
		return b.SCAPVdd
	}
	return b.SCAPVss
}

// Profile is the complete power report of one pattern.
type Profile struct {
	Period float64 // tester cycle, ns
	// Blocks has one entry per floorplan block followed by one chip-level
	// entry (index NumBlocks).
	Blocks []BlockPower
	// InstEnergy is the per-instance switched energy in fJ (both rails
	// combined), consumed by the delay-scaling analysis; InstEnergyVDD and
	// InstEnergyVSS split it by rail (rising vs falling edges) for the
	// per-rail dynamic IR-drop analysis.
	InstEnergy    []float64
	InstEnergyVDD []float64
	InstEnergyVSS []float64
}

// Chip returns the chip-level totals.
func (p *Profile) Chip() *BlockPower { return &p.Blocks[len(p.Blocks)-1] }

// Block returns block b's profile.
func (p *Profile) Block(b int) *BlockPower { return &p.Blocks[b] }

// Meter accumulates toggles from a timing simulation into a Profile.
// It implements the paper's PLI-based SCAP calculator.
type Meter struct {
	d     *netlist.Design
	vdd2  float64
	capOf []float64 // per-instance switched capacitance, fF

	instEnergy    []float64
	instEnergyVDD []float64
	instEnergyVSS []float64
	blocks        []BlockPower

	// waveform binning (see waveform.go); disabled when binNs <= 0.
	binNs float64
	bins  []float64

	// unflushedToggles counts OnToggle calls since the last flush to the
	// shared power.toggles_metered counter (kept local so the toggle hot
	// path never touches an atomic).
	unflushedToggles int64
}

// NewMeter builds a meter for a design whose parasitics are extracted
// (LoadCap must be meaningful).
func NewMeter(d *netlist.Design) *Meter {
	m := &Meter{
		d:     d,
		vdd2:  d.Lib.VDD * d.Lib.VDD,
		capOf: make([]float64, d.NumInsts()),
	}
	for i := range d.Insts {
		m.capOf[i] = d.LoadCap(netlist.InstID(i))
	}
	m.Reset()
	return m
}

// Clone returns a fresh, reset meter for the same design. The
// per-instance capacitance table is immutable after NewMeter and stays
// shared, so cloning skips the O(instances) LoadCap pass — the cheap
// per-worker constructor path of the parallel profiling pipeline.
func (m *Meter) Clone() *Meter {
	c := &Meter{d: m.d, vdd2: m.vdd2, capOf: m.capOf, binNs: m.binNs}
	c.Reset()
	return c
}

// Reset clears the accumulated pattern, reusing the accumulator buffers:
// the meter sits in a per-pattern hot loop, and Report already copies
// everything that escapes.
func (m *Meter) Reset() {
	cMeterResets.Add(1)
	m.FlushToggles()
	m.instEnergy = resetF(m.instEnergy, m.d.NumInsts())
	m.instEnergyVDD = resetF(m.instEnergyVDD, m.d.NumInsts())
	m.instEnergyVSS = resetF(m.instEnergyVSS, m.d.NumInsts())
	if m.blocks == nil {
		m.blocks = make([]BlockPower, m.d.NumBlocks+1)
	}
	for i := range m.blocks {
		m.blocks[i] = BlockPower{Block: i, First: -1}
	}
	m.bins = m.bins[:0]
}

// resetF returns a zeroed float slice of length n, reusing s's storage
// when it is already the right size.
func resetF(s []float64, n int) []float64 {
	if len(s) != n {
		return make([]float64, n)
	}
	for i := range s {
		s[i] = 0
	}
	return s
}

// FlushToggles moves the meter-local toggle count into the shared
// power.toggles_metered counter. Reset and ReportBlocks flush on their
// own; a caller that drops a meter after its last pattern without either
// flushes it here, or that pattern's toggles go uncounted.
func (m *Meter) FlushToggles() {
	if m.unflushedToggles > 0 {
		cTogglesMeterd.Add(m.unflushedToggles)
		m.unflushedToggles = 0
	}
}

// OnToggle records one output transition; it has the sim.ToggleFn shape.
func (m *Meter) OnToggle(inst netlist.InstID, t float64, rising bool) {
	m.unflushedToggles++
	e := m.capOf[inst] * m.vdd2
	m.instEnergy[inst] += e
	m.waveformAccumulate(t, e)
	if rising {
		m.instEnergyVDD[inst] += e
	} else {
		m.instEnergyVSS[inst] += e
	}
	add := func(idx int) {
		b := &m.blocks[idx]
		b.Toggles++
		if rising {
			b.EnergyVDD += e
		} else {
			b.EnergyVSS += e
		}
		if b.First < 0 || t < b.First {
			b.First = t
		}
		if t > b.Last {
			b.Last = t
		}
	}
	if bi := m.d.Insts[inst].Block; bi >= 0 {
		add(bi)
	}
	add(len(m.blocks) - 1)
}

// Report finalizes the pattern at tester period T (ns) and returns the
// profile. The meter keeps accumulating until Reset.
func (m *Meter) Report(period float64) *Profile {
	return &Profile{
		Period:        period,
		Blocks:        m.ReportBlocks(period),
		InstEnergy:    append([]float64(nil), m.instEnergy...),
		InstEnergyVDD: append([]float64(nil), m.instEnergyVDD...),
		InstEnergyVSS: append([]float64(nil), m.instEnergyVSS...),
	}
}

// ReportBlocks finalizes only the per-block view of the pattern (one
// entry per block plus the chip entry), skipping the three O(instances)
// energy-vector copies of Report that the pattern-profiling loop never
// consumes. The returned slice is independent of the meter.
func (m *Meter) ReportBlocks(period float64) []BlockPower {
	m.FlushToggles()
	blocks := make([]BlockPower, len(m.blocks))
	copy(blocks, m.blocks)
	for i := range blocks {
		b := &blocks[i]
		if b.First < 0 {
			b.First = 0
		}
		b.STW = b.Last
		b.CAPVdd = mw(b.EnergyVDD, period)
		b.CAPVss = mw(b.EnergyVSS, period)
		b.SCAPVdd = mw(b.EnergyVDD, b.STW)
		b.SCAPVss = mw(b.EnergyVSS, b.STW)
	}
	return blocks
}

// RawInstEnergyVDD returns the meter's live per-instance VDD-rail energy
// accumulator (fJ, rising edges). It is valid until the next Reset and
// must not be mutated — the batched IR-drop pipeline reads it directly
// instead of paying Report's per-instance copies.
func (m *Meter) RawInstEnergyVDD() []float64 { return m.instEnergyVDD }

// RawInstEnergyVSS is RawInstEnergyVDD for the VSS rail (falling edges).
func (m *Meter) RawInstEnergyVSS() []float64 { return m.instEnergyVSS }

// mw converts energy (fJ) over a window (ns) to mW; a zero window yields 0.
func mw(energyFJ, windowNs float64) float64 {
	if windowNs <= 0 {
		return 0
	}
	return energyFJ / windowNs * 1e-3
}

// InstCurrents converts a per-instance energy vector (fJ) spent within a
// window (ns) into average per-instance currents in mA, the input of the
// IR-drop solver: I = E / (VDD · t).
func InstCurrents(d *netlist.Design, energy []float64, windowNs float64) []float64 {
	return InstCurrentsInto(nil, d, energy, windowNs)
}

// InstCurrentsInto is InstCurrents writing into a reusable buffer (the
// per-worker scratch of the batched IR-drop pipeline); dst is grown if
// needed and returned.
func InstCurrentsInto(dst []float64, d *netlist.Design, energy []float64, windowNs float64) []float64 {
	if len(dst) != len(energy) {
		dst = make([]float64, len(energy))
	}
	if windowNs <= 0 {
		for i := range dst {
			dst[i] = 0
		}
		return dst
	}
	for i, e := range energy {
		dst[i] = e / (d.Lib.VDD * windowNs) * 1e-3 // µA -> mA
	}
	return dst
}
