// Package place implements the physical-design substrate: the fixed
// six-block floorplan of the paper's Figure 1 and a deterministic in-block
// grid placement. Placement coordinates feed parasitic extraction (wire
// caps and delays from distance), scan-chain ordering, the clock tree, and
// the IR-drop mesh (cell currents are injected at placed locations; block
// B5 sits at the die center, farthest from the peripheral pads, which is
// why it sees the worst IR-drop).
package place

import (
	"fmt"
	"math"
	"math/rand"

	"scap/internal/netlist"
	"scap/internal/soc"
)

// Rect is an axis-aligned rectangle in die units.
type Rect struct {
	X0, Y0, X1, Y1 float64
}

// W returns the rectangle width.
func (r Rect) W() float64 { return r.X1 - r.X0 }

// H returns the rectangle height.
func (r Rect) H() float64 { return r.Y1 - r.Y0 }

// Center returns the rectangle midpoint.
func (r Rect) Center() (float64, float64) {
	return (r.X0 + r.X1) / 2, (r.Y0 + r.Y1) / 2
}

// Contains reports whether (x, y) lies inside the rectangle.
func (r Rect) Contains(x, y float64) bool {
	return x >= r.X0 && x < r.X1 && y >= r.Y0 && y < r.Y1
}

// DieSize is the fixed die edge length in die units (~µm at the default
// 1/8 scale of the paper's 180 nm design).
const DieSize = 1000.0

// Floorplan is the chip-level geometry: die extent, one rectangle per
// block B1..B6, and a glue channel for untagged top-level logic.
type Floorplan struct {
	W, H   float64
	Blocks []Rect
	Glue   Rect
}

// NewFloorplan returns the paper's Figure 1 layout: four corner blocks
// (B1..B4), B6 on the left edge middle, and B5 — the hot block — in the
// die center.
func NewFloorplan() *Floorplan {
	s := DieSize
	return &Floorplan{
		W: s, H: s,
		Blocks: []Rect{
			soc.B1: {0.02 * s, 0.70 * s, 0.30 * s, 0.98 * s}, // top-left
			soc.B2: {0.70 * s, 0.70 * s, 0.98 * s, 0.98 * s}, // top-right
			soc.B3: {0.02 * s, 0.02 * s, 0.30 * s, 0.30 * s}, // bottom-left
			soc.B4: {0.70 * s, 0.02 * s, 0.98 * s, 0.30 * s}, // bottom-right
			soc.B5: {0.33 * s, 0.33 * s, 0.67 * s, 0.67 * s}, // center (hot)
			soc.B6: {0.02 * s, 0.34 * s, 0.28 * s, 0.66 * s}, // left middle
		},
		Glue: Rect{0.72 * s, 0.34 * s, 0.96 * s, 0.66 * s}, // routing channel
	}
}

// BlockAt returns the block index containing (x, y), or netlist.NoBlock.
func (fp *Floorplan) BlockAt(x, y float64) int {
	for b, r := range fp.Blocks {
		if r.Contains(x, y) {
			return b
		}
	}
	return netlist.NoBlock
}

// Rect returns the rectangle of block b, or the glue channel for NoBlock.
func (fp *Floorplan) Rect(b int) Rect {
	if b == netlist.NoBlock {
		return fp.Glue
	}
	return fp.Blocks[b]
}

// PadXY returns the die-boundary location of pad i of n, spaced evenly
// around the periphery from the lower-left corner, counter-clockwise.
// i may be fractional (the power grid's VSS pads sit half a pitch off
// its VDD pads); a position past the last pad wraps around. n <= 0
// returns the origin.
func (fp *Floorplan) PadXY(i float64, n int) (float64, float64) {
	if n <= 0 {
		return 0, 0
	}
	per := 2 * (fp.W + fp.H)
	pos := math.Mod(per*i/float64(n), per)
	switch {
	case pos < fp.W:
		return pos, 0
	case pos < fp.W+fp.H:
		return fp.W, pos - fp.W
	case pos < 2*fp.W+fp.H:
		return 2*fp.W + fp.H - pos, fp.H
	default:
		return 0, per - pos
	}
}

// Place assigns a location to every instance of d inside its block's
// rectangle using a jittered grid in shuffled order, and returns the
// floorplan. Determinism: same design and seed give identical placement.
func Place(d *netlist.Design, seed int64) (*Floorplan, error) {
	fp := NewFloorplan()
	if d.NumBlocks > len(fp.Blocks) {
		return nil, fmt.Errorf("place: design has %d blocks, floorplan has %d",
			d.NumBlocks, len(fp.Blocks))
	}
	r := rand.New(rand.NewSource(seed))

	groups := make(map[int][]netlist.InstID)
	for i := range d.Insts {
		b := d.Insts[i].Block
		groups[b] = append(groups[b], netlist.InstID(i))
	}
	// Deterministic block iteration order: NoBlock last.
	order := make([]int, 0, len(groups))
	for b := 0; b < d.NumBlocks; b++ {
		if len(groups[b]) > 0 {
			order = append(order, b)
		}
	}
	if len(groups[netlist.NoBlock]) > 0 {
		order = append(order, netlist.NoBlock)
	}

	for _, b := range order {
		ids := groups[b]
		rect := fp.Rect(b)
		// Shuffle so scan ordering by location is non-trivial and wire
		// lengths are realistic (logical neighbors are physically spread).
		r.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		cols := int(math.Ceil(math.Sqrt(float64(len(ids)) * rect.W() / rect.H())))
		if cols < 1 {
			cols = 1
		}
		rows := (len(ids) + cols - 1) / cols
		px, py := rect.W()/float64(cols), rect.H()/float64(rows)
		for i, id := range ids {
			cx, cy := i%cols, i/cols
			inst := d.Inst(id)
			inst.X = rect.X0 + (float64(cx)+0.25+0.5*r.Float64())*px
			inst.Y = rect.Y0 + (float64(cy)+0.25+0.5*r.Float64())*py
		}
	}
	return fp, nil
}

// Dist returns the Manhattan distance between two placed instances.
func Dist(a, b *netlist.Instance) float64 {
	return math.Abs(a.X-b.X) + math.Abs(a.Y-b.Y)
}

// ASCII renders the floorplan as a w×h character grid with block labels,
// backing the Figure 1 experiment output.
func (fp *Floorplan) ASCII(w, h int) string {
	grid := make([][]byte, h)
	for y := range grid {
		grid[y] = make([]byte, w)
		for x := range grid[y] {
			grid[y][x] = '.'
		}
	}
	for b, r := range fp.Blocks {
		x0 := int(r.X0 / fp.W * float64(w))
		x1 := int(r.X1 / fp.W * float64(w))
		y0 := int(r.Y0 / fp.H * float64(h))
		y1 := int(r.Y1 / fp.H * float64(h))
		for y := y0; y < y1 && y < h; y++ {
			for x := x0; x < x1 && x < w; x++ {
				grid[h-1-y][x] = byte('1' + b)
			}
		}
		// Label at block center.
		cx, cy := r.Center()
		lx := int(cx / fp.W * float64(w))
		ly := h - 1 - int(cy/fp.H*float64(h))
		label := fmt.Sprintf("B%d", b+1)
		for i := 0; i < len(label) && lx+i < w; i++ {
			grid[ly][lx+i] = label[i]
		}
	}
	out := make([]byte, 0, (w+1)*h)
	for _, row := range grid {
		out = append(out, row...)
		out = append(out, '\n')
	}
	return string(out)
}
