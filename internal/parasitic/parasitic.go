// Package parasitic estimates interconnect parasitics from placement and
// annotates the netlist with per-net wire capacitance and delay. It stands
// in for the paper's Synopsys STAR-RCXT extraction step: downstream
// consumers (the SCAP power model, the timing simulator, the IR-drop
// analysis) only need per-net lumped C and a driver-to-load delay, which
// are estimated here from half-perimeter wirelength (HPWL).
package parasitic

import (
	"fmt"
	"math"

	"scap/internal/netlist"
	"scap/internal/place"
)

// Params calibrates the per-unit-length wire model. The defaults are tuned
// so that, on the default SOC, sensitized path delays land near half the
// 20 ns test period — the paper's observed average switching time frame.
type Params struct {
	CapPerUnit   float64 // fF of wire capacitance per die unit of HPWL
	DelayPerUnit float64 // ns of interconnect delay per die unit of HPWL
	PadExtra     float64 // extra HPWL charged to primary-input nets (pad escape)
}

// DefaultParams returns the calibrated 180 nm-magnitude wire model.
func DefaultParams() Params {
	return Params{CapPerUnit: 0.18, DelayPerUnit: 0.0006, PadExtra: 30}
}

// Validate reports parameter problems.
func (p Params) Validate() error {
	if p.CapPerUnit < 0 || p.DelayPerUnit < 0 || p.PadExtra < 0 {
		return fmt.Errorf("parasitic: negative parameter: %+v", p)
	}
	return nil
}

// Summary reports aggregate extraction results.
type Summary struct {
	Nets         int
	TotalWireCap float64 // fF
	MaxHPWL      float64 // die units
	MeanHPWL     float64 // die units
}

// Extract computes the HPWL of every net from the placed design and fills
// in Net.WireCap and Net.WireDelay. Primary-input nets use their pad
// location as the driver point.
func Extract(d *netlist.Design, fp *place.Floorplan, p Params) (Summary, error) {
	if err := p.Validate(); err != nil {
		return Summary{}, err
	}
	var sum Summary
	totalHPWL := 0.0
	for i := range d.Nets {
		n := &d.Nets[i]
		var x0, y0, x1, y1 float64
		switch {
		case n.Driver != netlist.NoInst:
			drv := d.Inst(n.Driver)
			x0, y0, x1, y1 = drv.X, drv.Y, drv.X, drv.Y
		case n.PI >= 0:
			px, py := fp.PadXY(float64(n.PI), len(d.PIs))
			x0, y0, x1, y1 = px, py, px, py
		default:
			continue
		}
		for _, ld := range n.Loads {
			li := d.Inst(ld.Inst)
			x0, x1 = math.Min(x0, li.X), math.Max(x1, li.X)
			y0, y1 = math.Min(y0, li.Y), math.Max(y1, li.Y)
		}
		hpwl := (x1 - x0) + (y1 - y0)
		if n.PI >= 0 {
			hpwl += p.PadExtra
		}
		n.WireCap = p.CapPerUnit * hpwl
		n.WireDelay = p.DelayPerUnit * hpwl
		sum.Nets++
		sum.TotalWireCap += n.WireCap
		totalHPWL += hpwl
		if hpwl > sum.MaxHPWL {
			sum.MaxHPWL = hpwl
		}
	}
	if sum.Nets > 0 {
		sum.MeanHPWL = totalHPWL / float64(sum.Nets)
	}
	return sum, nil
}
