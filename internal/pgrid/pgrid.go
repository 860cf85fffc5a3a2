// Package pgrid models the chip's power-delivery network and computes
// IR-drop: a uniform resistive mesh per rail (VDD and VSS have the same
// topology), fed by pads distributed around the die periphery (the paper's
// design has 37 VDD and 37 VSS pads), with cell currents injected at their
// placed locations. The mesh equation G·v = I is solved by a sparse LDLᵀ
// factorization under a nested-dissection ordering (see sparse.go): G is
// factored once per grid, and one pair of triangular sweeps solves up to
// Lanes injections at once (Batch, see sweep.go).
//
// Both analyses of the paper run on top of this solver:
//
//   - statistical (vector-less): per-instance currents from a toggle
//     probability over a chosen window (full or half cycle — Table 3);
//   - dynamic (per-pattern): per-instance currents from the switching
//     energy a pattern dissipates within its switching time frame window
//     (Figure 3, Table 4).
//
// Because the center of the die is farthest from the pads, the central
// block B5 naturally sees the worst drop — the paper's key observation.
package pgrid

import (
	"fmt"
	"sync"

	"scap/internal/netlist"
	"scap/internal/place"
)

// Params configures the mesh and solver.
type Params struct {
	N       int     // mesh resolution: N×N nodes over the die
	SegRes  float64 // Ω of each mesh segment between adjacent nodes
	NumPads int     // pads per rail around the periphery (paper: 37)
	PadRes  float64 // Ω from a pad to its mesh node
	// PadOffset shifts the pads by this fraction of the pad pitch; the
	// VSS network uses 0.5 so its pads interleave with the VDD pads.
	PadOffset float64
	// Workers fans the factorization's independent nested-dissection
	// subtrees across goroutines (<= 0 means all cores, 1 forces the
	// serial path). The factor is bit-identical for any value.
	Workers int
}

// DefaultParams returns a mesh calibrated to 180 nm package/grid
// magnitudes at the repo's default design scale.
func DefaultParams() Params {
	return Params{
		N: 40, SegRes: 0.55, NumPads: 37, PadRes: 0.4,
	}
}

// Validate reports parameter problems.
func (p Params) Validate() error {
	if p.N < 1 {
		return fmt.Errorf("pgrid: N must be >= 1")
	}
	if p.SegRes <= 0 || p.PadRes <= 0 {
		return fmt.Errorf("pgrid: resistances must be positive")
	}
	if p.NumPads < 1 {
		return fmt.Errorf("pgrid: need at least one pad")
	}
	return nil
}

// Grid is a built power mesh for one die.
type Grid struct {
	P  Params
	fp *place.Floorplan
	// padG[i] is the pad conductance attached to node i (0 if none).
	padG []float64
	// block[i] is the floorplan block containing node i's center, or
	// netlist.NoBlock.
	block []int32

	// Cached sparse LDLᵀ factorization of the conductance matrix (see
	// sparse.go); built lazily on the first Factor, Solve or NewBatch
	// call and shared read-only by every sweep thereafter.
	factOnce sync.Once
	fact     *Factorization
	factErr  error
}

// New builds the mesh over the floorplan's die.
func New(fp *place.Floorplan, p Params) (*Grid, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	nn := p.N * p.N
	g := &Grid{P: p, fp: fp, padG: make([]float64, nn), block: make([]int32, nn)}
	for i := 0; i < p.NumPads; i++ {
		x, y := fp.PadXY(float64(i)+p.PadOffset, p.NumPads)
		g.padG[g.NodeOf(x, y)] += 1 / p.PadRes
	}
	for node := range g.block {
		g.block[node] = int32(fp.BlockAt(g.NodeXY(node)))
	}
	return g, nil
}

// NodeOf returns the mesh node index closest to die location (x, y).
func (g *Grid) NodeOf(x, y float64) int {
	n := g.P.N
	ix := int(x / g.fp.W * float64(n))
	iy := int(y / g.fp.H * float64(n))
	if ix < 0 {
		ix = 0
	}
	if ix >= n {
		ix = n - 1
	}
	if iy < 0 {
		iy = 0
	}
	if iy >= n {
		iy = n - 1
	}
	return iy*n + ix
}

// NodeXY returns the die location of a node's center.
func (g *Grid) NodeXY(node int) (float64, float64) {
	n := g.P.N
	ix, iy := node%n, node/n
	return (float64(ix) + 0.5) * g.fp.W / float64(n),
		(float64(iy) + 0.5) * g.fp.H / float64(n)
}

// InjectInstCurrents maps per-instance currents (mA, indexed by InstID)
// onto mesh nodes, returning the per-node injection vector.
func (g *Grid) InjectInstCurrents(d *netlist.Design, cur []float64) []float64 {
	inj := make([]float64, g.P.N*g.P.N)
	for i := range d.Insts {
		if cur[i] == 0 {
			continue
		}
		inj[g.NodeOf(d.Insts[i].X, d.Insts[i].Y)] += cur[i]
	}
	return inj
}

// Solution is a solved rail: per-node voltage drop from the nominal rail
// voltage (positive volts for both VDD sag and VSS bounce).
type Solution struct {
	N     int
	Drop  []float64 // volts per node
	Worst float64   // max node drop, volts
}

// At samples the solved drop at a die location (nearest node).
func (s *Solution) At(g *Grid, x, y float64) float64 {
	return s.Drop[g.NodeOf(x, y)]
}

// WorstPerBlock returns the maximum node drop inside each block rectangle,
// plus a chip-level entry (index numBlocks). Nodes outside every block
// count only toward the chip entry.
func (s *Solution) WorstPerBlock(g *Grid, numBlocks int) []float64 {
	out := make([]float64, numBlocks+1)
	for node, d := range s.Drop {
		worstInto(out, g.block[node], d)
	}
	return out
}

// worstInto raises the chip entry of out (its last) and, for a node in
// block b, that block's entry to drop d.
func worstInto(out []float64, b int32, d float64) {
	chip := len(out) - 1
	if b >= 0 && int(b) < chip && d > out[b] {
		out[b] = d
	}
	if d > out[chip] {
		out[chip] = d
	}
}
