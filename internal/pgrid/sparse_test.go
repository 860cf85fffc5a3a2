package pgrid

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"scap/internal/cell"
	"scap/internal/netlist"
	"scap/internal/place"
)

// TestNestedDissectionRoundTrip: for every mesh edge (including the
// degenerate 1..3 sizes the recursion must bottom out on), the ordering
// is a true permutation and Perm/IPerm invert each other.
func TestNestedDissectionRoundTrip(t *testing.T) {
	for n := 1; n <= 40; n++ {
		o := NestedDissection(n)
		nn := n * n
		if len(o.Perm) != nn || len(o.IPerm) != nn {
			t.Fatalf("n=%d: perm length %d / iperm length %d, want %d", n, len(o.Perm), len(o.IPerm), nn)
		}
		seen := make([]bool, nn)
		for k, node := range o.Perm {
			if node < 0 || int(node) >= nn {
				t.Fatalf("n=%d: perm[%d] = %d out of range", n, k, node)
			}
			if seen[node] {
				t.Fatalf("n=%d: node %d ordered twice", n, node)
			}
			seen[node] = true
			if o.IPerm[node] != int32(k) {
				t.Fatalf("n=%d: iperm[perm[%d]] = %d, want %d", n, k, o.IPerm[node], k)
			}
		}
	}
}

// randGrid builds a randomized mesh: random resolution, segment/pad
// resistances, pad count and pad offset.
func randGrid(t *testing.T, rng *rand.Rand) *Grid {
	t.Helper()
	p := DefaultParams()
	p.N = 4 + rng.Intn(12)           // 4..15 -> 16..225 nodes
	p.SegRes = 0.1 + 2*rng.Float64() // 0.1..2.1 Ω
	p.PadRes = 0.05 + rng.Float64()  // 0.05..1.05 Ω
	p.NumPads = 1 + rng.Intn(40)     // 1..40
	p.PadOffset = rng.Float64() / 2  // 0..0.5
	g, err := New(place.NewFloorplan(), p)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// randInj draws a sparse-ish random injection (mA) over the mesh.
func randInj(g *Grid, rng *rand.Rand) []float64 {
	nn := g.P.N * g.P.N
	inj := make([]float64, nn)
	hits := 1 + rng.Intn(nn)
	for h := 0; h < hits; h++ {
		inj[rng.Intn(nn)] += 50 * rng.Float64()
	}
	return inj
}

// TestSparseMatchesOracles is the solver's correctness contract: on
// randomized injections Solve must agree with the dense Gaussian oracle
// within 1e-9 V on every node and on the worst drop. It covers every
// mesh edge from 1 to 21 (the degenerate sizes the nested-dissection
// recursion bottoms out on included) on the square die and on a
// W × 0.35·W die, where the pads land asymmetrically, plus meshes with
// random resistances, pad counts and pad offsets.
func TestSparseMatchesOracles(t *testing.T) {
	const tol = 1e-9
	check := func(name string, g *Grid, inj []float64) {
		t.Helper()
		got, err := g.Solve(inj)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := solveDense(g, inj)
		if err != nil {
			t.Fatalf("%s: dense: %v", name, err)
		}
		for i := range want.Drop {
			if d := math.Abs(got.Drop[i] - want.Drop[i]); d > tol {
				t.Fatalf("%s node %d: Solve %v vs dense %v", name, i, got.Drop[i], want.Drop[i])
			}
		}
		if d := math.Abs(got.Worst - want.Worst); d > tol {
			t.Fatalf("%s: worst Solve %v vs dense %v", name, got.Worst, want.Worst)
		}
	}
	rng := rand.New(rand.NewSource(99))
	dies := []struct {
		name string
		fp   *place.Floorplan
	}{
		{"square", place.NewFloorplan()},
		{"wide", &place.Floorplan{W: place.DieSize, H: 0.35 * place.DieSize}},
	}
	for _, die := range dies {
		for n := 1; n <= 21; n++ {
			p := DefaultParams()
			p.N = n
			g, err := New(die.fp, p)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("%s n=%d", die.name, n), g, randInj(g, rng))
		}
	}
	for trial := 0; trial < 25; trial++ {
		g := randGrid(t, rng)
		check(fmt.Sprintf("trial %d (N=%d)", trial, g.P.N), g, randInj(g, rng))
	}
}

// TestSparseFactorStats: the symbolic fill bookkeeping must be
// internally consistent, and the nested-dissection fill must stay far
// below the N³ storage of a banded factor at a representative size.
func TestSparseFactorStats(t *testing.T) {
	p := DefaultParams()
	p.N = 48
	g, err := New(place.NewFloorplan(), p)
	if err != nil {
		t.Fatal(err)
	}
	f, err := g.Factor()
	if err != nil {
		t.Fatal(err)
	}
	nn := int64(p.N * p.N)
	if f.NNZ() < nn {
		t.Fatalf("factor nnz %d below node count %d", f.NNZ(), nn)
	}
	if f.FillRatio() < 1 {
		t.Fatalf("fill ratio %v below 1", f.FillRatio())
	}
	banded := nn * int64(p.N) // banded l storage: nn rows × bw floats
	if f.NNZ() >= banded/2 {
		t.Fatalf("sparse fill %d not clearly below banded storage %d", f.NNZ(), banded)
	}
	// Cached: a second call returns the same factorization.
	again, err := g.Factor()
	if err != nil {
		t.Fatal(err)
	}
	if again != f {
		t.Fatal("Factor did not cache")
	}
}

// TestSweepLanesMatchesSolve is the lane kernel's contract: on mesh
// edges 1–21, 40 and 128, every lane of a group with 1 to Lanes lanes
// in use holds, bit for bit, what Solve gives for that injection alone,
// so lanes never interact and the per-pattern analyses may group
// injections freely.
func TestSweepLanesMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	edges := []int{40, 128}
	for n := 1; n <= 21; n++ {
		edges = append(edges, n)
	}
	for _, n := range edges {
		p := DefaultParams()
		p.N = n
		g, err := New(place.NewFloorplan(), p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := g.newBatch()
		if err != nil {
			t.Fatal(err)
		}
		for used := 1; used <= Lanes; used++ {
			injs := make([][]float64, used)
			b.Reset()
			for l := range injs {
				injs[l] = randInj(g, rng)
				b.load(l, injs[l])
			}
			b.Sweep(used)
			for l, inj := range injs {
				want, err := g.Solve(inj)
				if err != nil {
					t.Fatal(err)
				}
				got := b.solution(l)
				for node := range want.Drop {
					if math.Float64bits(got.Drop[node]) != math.Float64bits(want.Drop[node]) {
						t.Fatalf("n=%d, %d lanes, lane %d node %d: sweep %v, Solve %v",
							n, used, l, node, got.Drop[node], want.Drop[node])
					}
				}
				if math.Float64bits(got.Worst) != math.Float64bits(want.Worst) {
					t.Fatalf("n=%d, %d lanes, lane %d: worst %v, Solve %v", n, used, l, got.Worst, want.Worst)
				}
			}
			for k := range b.y {
				for l := used; l < Lanes; l++ {
					if b.y[k][l] != 0 {
						t.Fatalf("n=%d, %d lanes: idle lane %d holds %v", n, used, l, b.y[k][l])
					}
				}
			}
		}
	}
}

// TestSweepNoAlloc: a group sweep (reset, inject each lane, sweep)
// reuses the batch and allocates nothing.
func TestSweepNoAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randGrid(t, rng)
	// A few inverters scattered over the die, each with its own current
	// per lane.
	d := netlist.New("scatter", cell.New180nm())
	in := d.AddPI("a")
	var cur [Lanes][]float64
	for i := 0; i < 32; i++ {
		id := d.AddInst(fmt.Sprintf("g%d", i), cell.Inv, []netlist.NetID{in}, d.AddNet(fmt.Sprintf("n%d", i)), 0)
		d.Insts[id].X, d.Insts[id].Y = rng.Float64()*place.DieSize, rng.Float64()*place.DieSize
		for l := range cur {
			cur[l] = append(cur[l], 5*rng.Float64())
		}
	}
	b, err := g.NewBatch(d)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		b.Reset()
		for l := range cur {
			b.Inject(l, cur[l])
		}
		b.Sweep(Lanes)
	})
	if allocs != 0 {
		t.Fatalf("group sweep allocated %v objects/op, want 0", allocs)
	}
}

// TestSparseFactorizationConcurrentSolves shares one factorization
// across 8 goroutines, each running many solves on its own batch,
// and leaves the first-touch build to race among them. Run under -race
// via `make test-race`, this is the data-race contract of the read-only
// factor cache; the answers must also be bit-identical to a serial
// reference computed on a second identical grid.
func TestSparseFactorizationConcurrentSolves(t *testing.T) {
	p := DefaultParams()
	p.N = 16
	concurrentSolves(t, p, 17)
}

// TestFactorizationConcurrentSolves runs the same first-touch race on a
// mesh large enough that the factorization fans its subtrees out over
// Workers goroutines, so the racing solvers wait on the cache while the
// numeric pass runs in parallel. The serial reference grid factors with
// one worker.
func TestFactorizationConcurrentSolves(t *testing.T) {
	p := DefaultParams()
	p.N = 96 // children ≈ 4.6k and grandchildren ≈ 2.3k rows, above subtreeMinRows
	p.Workers = 4
	concurrentSolves(t, p, 11)
}

// concurrentSolves solves 48 random injections from 8 goroutines on a
// fresh grid built from p, Lanes per sweep on each goroutine's own
// batch, and checks every drop bit for bit against serial solves on a
// second grid built from p with one worker.
func concurrentSolves(t *testing.T, p Params, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g, err := New(place.NewFloorplan(), p)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	const solvesEach = 6
	injs := make([][]float64, goroutines*solvesEach)
	refs := make([][]float64, len(injs))
	for i := range injs {
		injs[i] = randInj(g, rng)
	}
	pRef := p
	pRef.Workers = 1
	gRef, err := New(place.NewFloorplan(), pRef)
	if err != nil {
		t.Fatal(err)
	}
	for i := range injs {
		sol, err := gRef.Solve(injs[i])
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = append([]float64(nil), sol.Drop...)
	}

	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			b, err := g.newBatch()
			if err != nil {
				errs[w] = err
				return
			}
			for lo := 0; lo < solvesEach; lo += Lanes {
				hi := min(lo+Lanes, solvesEach)
				b.Reset()
				for s := lo; s < hi; s++ {
					b.load(s-lo, injs[w*solvesEach+s])
				}
				b.Sweep(hi - lo)
				for s := lo; s < hi; s++ {
					i := w*solvesEach + s
					sol := b.solution(s - lo)
					for node := range sol.Drop {
						if sol.Drop[node] != refs[i][node] {
							t.Errorf("worker %d solve %d node %d: %v vs serial %v",
								w, s, node, sol.Drop[node], refs[i][node])
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
}

// TestNestedDissectionTreeCoverage: the recorded recursion tree
// partitions the elimination range exactly — every row belongs to
// precisely one node's serial chunk ([sep, hi)), children tile their
// parent's [lo, sep), and the root spans the whole mesh.
func TestNestedDissectionTreeCoverage(t *testing.T) {
	for n := 1; n <= 40; n++ {
		o := NestedDissection(n)
		nn := int32(n * n)
		if len(o.tree) == 0 {
			t.Fatalf("n=%d: empty recursion tree", n)
		}
		root := o.tree[len(o.tree)-1]
		if root.lo != 0 || root.hi != nn {
			t.Fatalf("n=%d: root spans [%d, %d), want [0, %d)", n, root.lo, root.hi, nn)
		}
		covered := make([]int, nn)
		for idx, nd := range o.tree {
			if nd.lo > nd.sep || nd.sep > nd.hi {
				t.Fatalf("n=%d node %d: bad span lo=%d sep=%d hi=%d", n, idx, nd.lo, nd.sep, nd.hi)
			}
			if (nd.left < 0) != (nd.right < 0) {
				t.Fatalf("n=%d node %d: half-leaf (left=%d right=%d)", n, idx, nd.left, nd.right)
			}
			if nd.left >= 0 {
				l, r := o.tree[nd.left], o.tree[nd.right]
				if l.lo != nd.lo || l.hi != r.lo || r.hi != nd.sep {
					t.Fatalf("n=%d node %d: children [%d,%d) [%d,%d) don't tile [%d,%d)",
						n, idx, l.lo, l.hi, r.lo, r.hi, nd.lo, nd.sep)
				}
			} else if nd.sep != nd.lo {
				t.Fatalf("n=%d node %d: leaf with sep %d != lo %d", n, idx, nd.sep, nd.lo)
			}
			for k := nd.sep; k < nd.hi; k++ {
				covered[k]++
			}
		}
		for k, c := range covered {
			if c != 1 {
				t.Fatalf("n=%d: row %d covered %d times", n, k, c)
			}
		}
	}
}

// TestSparseParallelFactorBitIdentity: the numeric factorization must
// produce a bit-identical factor for any worker count, on a mesh large
// enough that the subtree fan-out actually spawns goroutines.
func TestSparseParallelFactorBitIdentity(t *testing.T) {
	const n = 128 // root children ≈ 8k rows each, above subtreeMinRows
	factor := func(workers int) *Factorization {
		p := DefaultParams()
		p.N = n
		p.Workers = workers
		g, err := New(place.NewFloorplan(), p)
		if err != nil {
			t.Fatal(err)
		}
		f, err := g.Factor()
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	ref := factor(1)
	for _, workers := range []int{2, 4, 7} {
		f := factor(workers)
		if len(f.lx) != len(ref.lx) {
			t.Fatalf("workers=%d: nnz %d != serial %d", workers, len(f.lx), len(ref.lx))
		}
		for i := range f.lx {
			if f.lx[i] != ref.lx[i] || f.rowIdx[i] != ref.rowIdx[i] {
				t.Fatalf("workers=%d: factor entry %d differs (must be bit-identical)", workers, i)
			}
		}
		for i := range f.d {
			if f.d[i] != ref.d[i] {
				t.Fatalf("workers=%d: d[%d] differs (must be bit-identical)", workers, i)
			}
		}
	}
}

// BenchmarkSweep prices the lane kernel per injection on the default
// 40×40 mesh and on 128×128, with dense injections (every node carries
// current, as a pattern's switching spreads over a block): lanes=1 is a
// single-injection solve, lanes=4 a full group. Each op resets the
// batch, loads its lanes and sweeps.
func BenchmarkSweep(b *testing.B) {
	for _, n := range []int{40, 128} {
		p := DefaultParams()
		p.N = n
		g, err := New(place.NewFloorplan(), p)
		if err != nil {
			b.Fatal(err)
		}
		batch, err := g.newBatch()
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(n)))
		var injs [Lanes][]float64
		for l := range injs {
			injs[l] = make([]float64, n*n)
			for i := range injs[l] {
				injs[l][i] = 0.05 * rng.Float64()
			}
		}
		for _, lanes := range []int{1, Lanes} {
			b.Run(fmt.Sprintf("n=%d/lanes=%d", n, lanes), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					batch.Reset()
					for l := 0; l < lanes; l++ {
						batch.load(l, injs[l])
					}
					batch.Sweep(lanes)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lanes)/1e3, "us/injection")
			})
		}
	}
}
