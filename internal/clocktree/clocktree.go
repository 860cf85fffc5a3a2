// Package clocktree models the chip's clock distribution: a buffered tree
// rooted at the die center whose per-flop insertion delay grows with routed
// distance, producing realistic skew between launch and capture flops.
//
// The tree matters twice in the reproduction. First, skew offsets launch
// and capture edges in the timing simulator. Second — the paper's Figure 7
// "Region 2" effect — clock buffers sit in the same voltage-drop regions as
// data logic, so under IR-drop the *capture clock* also slows down; when the
// clock path to a capture flop slows more than the data path, the measured
// endpoint delay decreases. ScaledArrival reproduces exactly that by
// re-deriving a flop's insertion delay with every route segment derated by
// the local voltage drop.
package clocktree

import (
	"math/rand"

	"scap/internal/netlist"
	"scap/internal/place"
)

// Params calibrates the clock-tree delay model.
type Params struct {
	BaseInsertion float64 // ns of fixed insertion delay at the root
	DelayPerUnit  float64 // ns of insertion delay per die unit of route
	JitterNs      float64 // uniform per-flop random skew component (+/- half)
	SegmentLen    float64 // die units between buffer stages along a route
}

// DefaultParams returns 180 nm-magnitude clock-tree parameters: sub-ns
// insertion, a few hundred ps of systematic skew across the die.
func DefaultParams() Params {
	return Params{BaseInsertion: 0.8, DelayPerUnit: 0.0007, JitterNs: 0.08, SegmentLen: 80}
}

// segment is one buffered stretch of a flop's clock route.
type segment struct {
	X, Y  float64 // buffer location
	Delay float64 // nominal delay contributed by this stage, ns
}

// Tree is the built clock network: per-flop arrival times and routes.
type Tree struct {
	SourceX, SourceY float64

	// arrival is indexed by InstID (0 for non-flops): the timing
	// simulator reads it once per launching flop on every launch.
	arrival []float64
	routes  map[netlist.InstID][]segment

	MaxSkew       float64 // ns, max minus min arrival over all flops
	MeanInsertion float64 // ns
}

// Build routes a clock from the die center to every flop of d along an
// L-shaped path with a buffer every SegmentLen units, and returns the tree.
// Same design/seed give an identical tree.
func Build(d *netlist.Design, fp *place.Floorplan, p Params, seed int64) *Tree {
	r := rand.New(rand.NewSource(seed))
	cx, cy := fp.W/2, fp.H/2
	t := &Tree{
		SourceX: cx, SourceY: cy,
		arrival: make([]float64, d.NumInsts()),
		routes:  make(map[netlist.InstID][]segment, len(d.Flops)),
	}
	if p.SegmentLen <= 0 {
		p.SegmentLen = 80
	}
	minA, maxA, sum := 1e18, -1e18, 0.0
	for _, f := range d.Flops {
		inst := d.Inst(f)
		segs := routeL(cx, cy, inst.X, inst.Y, p)
		jitter := (r.Float64() - 0.5) * p.JitterNs
		a := p.BaseInsertion + jitter
		for _, s := range segs {
			a += s.Delay
		}
		t.arrival[f] = a
		t.routes[f] = segs
		if a < minA {
			minA = a
		}
		if a > maxA {
			maxA = a
		}
		sum += a
	}
	if len(d.Flops) > 0 {
		t.MaxSkew = maxA - minA
		t.MeanInsertion = sum / float64(len(d.Flops))
	}
	return t
}

// routeL samples an L-shaped route (horizontal then vertical) from the
// source to the flop, one segment per SegmentLen units of travel.
func routeL(cx, cy, fx, fy float64, p Params) []segment {
	var segs []segment
	emit := func(x0, y0, x1, y1 float64) {
		dx, dy := x1-x0, y1-y0
		dist := dx
		if dist < 0 {
			dist = -dist
		}
		if dy != 0 {
			dist = dy
			if dist < 0 {
				dist = -dist
			}
		}
		n := int(dist/p.SegmentLen) + 1
		for i := 0; i < n; i++ {
			frac0 := float64(i) / float64(n)
			frac1 := float64(i+1) / float64(n)
			mx := x0 + dx*(frac0+frac1)/2
			my := y0 + dy*(frac0+frac1)/2
			segs = append(segs, segment{
				X: mx, Y: my,
				Delay: p.DelayPerUnit * dist / float64(n),
			})
		}
	}
	emit(cx, cy, fx, cy) // horizontal leg
	emit(fx, cy, fx, fy) // vertical leg
	return segs
}

// Arrival returns the nominal clock arrival time (ns after the clock-source
// edge) at flop f. Flops unknown to the tree get 0.
func (t *Tree) Arrival(f netlist.InstID) float64 {
	if uint(f) < uint(len(t.arrival)) {
		return t.arrival[f]
	}
	return 0
}

// ScaledArrival recomputes the arrival at flop f with every route segment
// derated by the local supply droop: each stage delay is multiplied by
// (1 + kvolt*drop(x, y)), where dropAt samples the IR-drop map (volts) at a
// die location. This is the paper's cell-delay-scaling formula applied to
// the clock path.
func (t *Tree) ScaledArrival(f netlist.InstID, kvolt float64, dropAt func(x, y float64) float64) float64 {
	segs, ok := t.routes[f]
	if !ok {
		return 0
	}
	base := t.arrival[f]
	for _, s := range segs {
		base -= s.Delay
	}
	// base now holds insertion + jitter; the root sits at the source.
	a := base * (1 + kvolt*clampNonNeg(dropAt(t.SourceX, t.SourceY)))
	for _, s := range segs {
		a += s.Delay * (1 + kvolt*clampNonNeg(dropAt(s.X, s.Y)))
	}
	return a
}

func clampNonNeg(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}
