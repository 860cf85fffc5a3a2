package pgrid

import (
	"fmt"

	"scap/internal/netlist"
)

// Lanes is how many injections one sweep carries. The kernel streams
// each entry of L once per block of Lanes right-hand sides, so the
// per-pattern and Monte-Carlo analyses group their injections by this
// count.
const Lanes = 4

// Batch holds up to Lanes injections of one grid, one per lane, and
// solves them all in one pair of triangular sweeps over the grid's
// cached factorization. It stores one row of Lanes values per mesh
// node, rows in elimination order: injections (mA) before Sweep, drops
// (mV) after it.
//
// A Batch belongs to one goroutine; the factorization behind it is
// shared read-only, so any number of batches may sweep concurrently.
type Batch struct {
	g *Grid
	f *Factorization
	y [][Lanes]float64
	// rows[i] is the row of y that instance i's current lands in: the
	// elimination position of the mesh node nearest the instance.
	rows []int32
}

// NewBatch returns a zeroed batch over the grid's factorization for the
// instances of design d, building the factorization on first use. It
// maps every instance to its mesh node's row once, so an injection costs
// one lookup per instance.
func (g *Grid) NewBatch(d *netlist.Design) (*Batch, error) {
	b, err := g.newBatch()
	if err != nil {
		return nil, err
	}
	iperm := b.f.ord.IPerm
	b.rows = make([]int32, len(d.Insts))
	for i := range d.Insts {
		b.rows[i] = iperm[g.NodeOf(d.Insts[i].X, d.Insts[i].Y)]
	}
	return b, nil
}

// newBatch is NewBatch without the instance map, for node injections.
func (g *Grid) newBatch() (*Batch, error) {
	f, err := g.Factor()
	if err != nil {
		return nil, err
	}
	return &Batch{g: g, f: f, y: make([][Lanes]float64, f.nn)}, nil
}

// Reset zeroes every lane, ready for the next group of injections.
func (b *Batch) Reset() { clear(b.y) }

// Inject adds per-instance currents (mA, indexed by InstID) to lane l at
// each instance's mesh node, as InjectInstCurrents does.
func (b *Batch) Inject(l int, cur []float64) {
	for i, mA := range cur {
		b.AddInst(l, netlist.InstID(i), mA)
	}
}

// AddInst adds instance i's current (mA) to lane l at the instance's
// mesh node; a zero current adds nothing. Instances added in ascending
// order sum to the same bits as Inject of the dense vector holding them.
func (b *Batch) AddInst(l int, i netlist.InstID, mA float64) {
	if mA != 0 {
		b.y[b.rows[i]][l] += mA
	}
}

// load sets lane l to a per-node injection vector.
func (b *Batch) load(l int, injMA []float64) {
	for k, node := range b.f.ord.Perm {
		b.y[k][l] = injMA[node]
	}
}

// Sweep solves every lane in place. n is the number of lanes in use,
// counted as that many solves; lanes Reset left empty stay zero.
func (b *Batch) Sweep(n int) {
	b.f.sweep(b.y)
	cSolves.Add(int64(n))
}

// WorstPerBlock returns lane l's maximum node drop (volts) inside each
// block, plus a chip-level entry (index numBlocks), as
// Solution.WorstPerBlock does for a single solve.
func (b *Batch) WorstPerBlock(l, numBlocks int) []float64 {
	out := make([]float64, numBlocks+1)
	block := b.g.block
	for k, node := range b.f.ord.Perm {
		worstInto(out, block[node], b.y[k][l]*1e-3)
	}
	return out
}

// solution copies lane l's drops into a node-ordered Solution in volts.
func (b *Batch) solution(l int) *Solution {
	sol := &Solution{N: b.f.n, Drop: make([]float64, b.f.nn)}
	for k, node := range b.f.ord.Perm {
		d := b.y[k][l] * 1e-3
		sol.Drop[node] = d
		if d > sol.Worst {
			sol.Worst = d
		}
	}
	return sol
}

// sweep solves L·D·Lᵀ·x = y in place for all Lanes right-hand sides:
// the unit-lower scatter L·z = y, the diagonal scale, and the gather
// Lᵀ·x = z. Each factor entry and row index is loaded once per block,
// and the gather runs one independent dependency chain per lane.
//
// Every lane repeats the single-injection solve operation for
// operation, so a lane's result is bit-identical to that injection
// swept alone. The scatter skips a column only when all lanes are zero
// there; a zero lane in a column it does not skip subtracts a signed
// zero, which leaves any value but -0 unchanged. No value becomes -0
// unless an injection holds one (x − y is -0 only when x is), and
// AddInst never writes one.
// The mesh conductances are in 1/Ω against mA, so the result is in mV.
func (f *Factorization) sweep(y [][Lanes]float64) {
	y = y[:f.nn]
	colPtr, rowIdx, lx, d := f.colPtr, f.rowIdx, f.lx, f.d
	// The lanes are held in scalar locals so each stays in a register.
	for j := range y {
		y0, y1, y2, y3 := y[j][0], y[j][1], y[j][2], y[j][3]
		if y0 == 0 && y1 == 0 && y2 == 0 && y3 == 0 {
			continue
		}
		rows := rowIdx[colPtr[j]:colPtr[j+1]]
		vals := lx[colPtr[j]:colPtr[j+1]]
		vals = vals[:len(rows)]
		for p, r := range rows {
			l, t := vals[p], &y[r]
			t[0] -= l * y0
			t[1] -= l * y1
			t[2] -= l * y2
			t[3] -= l * y3
		}
	}
	for j := range y {
		dj, t := d[j], &y[j]
		t[0] /= dj
		t[1] /= dj
		t[2] /= dj
		t[3] /= dj
	}
	for j := len(y) - 1; j >= 0; j-- {
		s0, s1, s2, s3 := y[j][0], y[j][1], y[j][2], y[j][3]
		rows := rowIdx[colPtr[j]:colPtr[j+1]]
		vals := lx[colPtr[j]:colPtr[j+1]]
		vals = vals[:len(rows)]
		for p, r := range rows {
			l, t := vals[p], &y[r]
			s0 -= l * t[0]
			s1 -= l * t[1]
			s2 -= l * t[2]
			s3 -= l * t[3]
		}
		y[j] = [Lanes]float64{s0, s1, s2, s3}
	}
}

// Solve computes node voltage drops (volts) for one per-node current
// injection (mA): a sweep with one lane in use over the grid's cached
// sparse LDLᵀ factorization, exact to rounding.
func (g *Grid) Solve(injMA []float64) (*Solution, error) {
	b, err := g.newBatch()
	if err != nil {
		return nil, err
	}
	if len(injMA) != b.f.nn {
		return nil, fmt.Errorf("pgrid: injection length %d, want %d", len(injMA), b.f.nn)
	}
	b.load(0, injMA)
	b.Sweep(1)
	return b.solution(0), nil
}
