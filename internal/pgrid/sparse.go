package pgrid

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"scap/internal/obs"
	"scap/internal/parallel"
)

// Solver observability (see DESIGN.md §10): builds counts the
// factorizations, solves the injections swept, and the one-time build
// records the symbolic fill (factor nnz, fill ratio) the ordering
// achieved. One flush per sweep, so the disabled cost is a gated atomic
// load.
var (
	cFactorBuilds = obs.NewCounter("pgrid.sparse.factor.builds")
	cSolves       = obs.NewCounter("pgrid.sparse.solves")
)

// Ordering is a fill-reducing elimination order of the n×n mesh nodes:
// Perm[k] is the original node eliminated k-th, IPerm its inverse
// (IPerm[node] = elimination position). Both are full permutations of
// [0, n·n).
type Ordering struct {
	N     int
	Perm  []int32
	IPerm []int32
	// tree is the nested-dissection recursion tree over elimination
	// positions, appended post-order (the root is tree[len(tree)-1]).
	// The parallel numeric factorization fans out over its independent
	// subtrees.
	tree []ndSpan
}

// ndSpan is one node of the nested-dissection recursion tree, expressed
// in elimination positions: the subtree owns rows [lo, hi); its two
// child regions cover [lo, sep) and are mutually independent (their
// mesh nodes touch only through the separator), and the separator rows
// [sep, hi) are eliminated after both children. A base-case leaf has
// left = right = -1 and sep = lo: all its rows run serially.
type ndSpan struct {
	lo, sep, hi int32
	left, right int32 // indices into Ordering.tree, -1 for a leaf
}

// NestedDissection computes a geometric nested-dissection ordering of
// the n×n mesh graph by recursive separator bisection: split the longer
// side of a rectangular region with a one-node-wide separator line,
// order both halves recursively, and number the separator last. On the
// 5-point mesh the grid structure *is* the graph, so the geometric
// separators are exact (no graph partitioner needed) and the classic
// George result applies: the Cholesky factor fills in at O(N·logN)
// nonzeros and factors in O(N^1.5) flops for N = n² nodes — against
// O(N^1.5) storage and O(N²) flops for a banded elimination.
func NestedDissection(n int) *Ordering {
	o := &Ordering{
		N:     n,
		Perm:  make([]int32, 0, n*n),
		IPerm: make([]int32, n*n),
	}
	var rec func(x0, y0, w, h int) int32
	rec = func(x0, y0, w, h int) int32 {
		if w <= 0 || h <= 0 {
			return -1
		}
		lo := int32(len(o.Perm))
		// Base case: thin or tiny regions take a natural banded order
		// with the shorter side fastest-varying (half-bandwidth ≤
		// min(w, h) inside the region, so no separator could do better).
		if w <= 2 || h <= 2 || w*h <= 12 {
			if w <= h {
				for y := y0; y < y0+h; y++ {
					for x := x0; x < x0+w; x++ {
						o.Perm = append(o.Perm, int32(y*n+x))
					}
				}
			} else {
				for x := x0; x < x0+w; x++ {
					for y := y0; y < y0+h; y++ {
						o.Perm = append(o.Perm, int32(y*n+x))
					}
				}
			}
			o.tree = append(o.tree, ndSpan{
				lo: lo, sep: lo, hi: int32(len(o.Perm)), left: -1, right: -1,
			})
			return int32(len(o.tree) - 1)
		}
		var left, right int32
		if w >= h {
			mid := x0 + w/2
			left = rec(x0, y0, mid-x0, h)
			right = rec(mid+1, y0, x0+w-mid-1, h)
			sep := int32(len(o.Perm))
			for y := y0; y < y0+h; y++ {
				o.Perm = append(o.Perm, int32(y*n+mid))
			}
			o.tree = append(o.tree, ndSpan{
				lo: lo, sep: sep, hi: int32(len(o.Perm)), left: left, right: right,
			})
		} else {
			mid := y0 + h/2
			left = rec(x0, y0, w, mid-y0)
			right = rec(x0, mid+1, w, y0+h-mid-1)
			sep := int32(len(o.Perm))
			for x := x0; x < x0+w; x++ {
				o.Perm = append(o.Perm, int32(mid*n+x))
			}
			o.tree = append(o.tree, ndSpan{
				lo: lo, sep: sep, hi: int32(len(o.Perm)), left: left, right: right,
			})
		}
		return int32(len(o.tree) - 1)
	}
	rec(0, 0, n, n)
	for k, node := range o.Perm {
		o.IPerm[node] = int32(k)
	}
	return o
}

// Factorization is the sparse LDLᵀ (root-free Cholesky) factorization
// of the mesh conductance matrix under a nested-dissection permutation:
// P·G·Pᵀ = L·D·Lᵀ with L unit lower triangular, stored compressed by
// columns. Storage follows the true fill pattern computed by a symbolic
// pass over the elimination tree, so factor memory is O(N·logN) for
// N = n² nodes.
//
// G depends only on the mesh topology and resistances, never on the
// injection, so both the symbolic and the numeric factorization happen
// once per Grid; after construction a Factorization is immutable and
// safe for concurrent use by any number of goroutines (each solve
// writes only caller-owned buffers).
type Factorization struct {
	n   int // mesh edge: n×n nodes
	nn  int // node count n·n
	ord *Ordering
	// L in compressed-sparse-column form, diagonal (all ones) implicit:
	// column j's sub-diagonal entries are rowIdx/lx[colPtr[j]:colPtr[j+1]],
	// rows strictly ascending.
	colPtr []int64
	rowIdx []int32
	lx     []float64
	d      []float64 // diagonal of D, in mesh conductance units (1/Ω)

	nnzA int64 // nonzeros of tril(G) incl. diagonal (for the fill ratio)
}

// NNZ returns the factor's stored nonzero count: the strictly-lower
// entries of L plus the diagonal of D.
func (f *Factorization) NNZ() int64 { return int64(len(f.lx)) + int64(f.nn) }

// FillRatio returns NNZ divided by the nonzeros of the lower triangle of
// G (diagonal included): 1.0 would mean the ordering produced no fill at
// all.
func (f *Factorization) FillRatio() float64 { return float64(f.NNZ()) / float64(f.nnzA) }

// Factor returns the grid's cached sparse LDLᵀ factorization, computing
// it on first use. The computation is guarded by a sync.Once:
// concurrent first callers block until one factorization exists and
// then share it read-only.
func (g *Grid) Factor() (*Factorization, error) {
	g.factOnce.Do(func() {
		cFactorBuilds.Add(1)
		g.fact, g.factErr = factorize(g)
	})
	return g.fact, g.factErr
}

// factorize runs the three build stages — ordering, symbolic, numeric —
// and records their spans and the achieved fill.
func factorize(g *Grid) (*Factorization, error) {
	defer obs.StartSpan("sparse-factor").End()
	n := g.P.N
	nn := n * n
	f := &Factorization{n: n, nn: nn, d: make([]float64, nn)}

	ordSpan := obs.StartSpan("sparse-ordering")
	f.ord = NestedDissection(n)
	ordSpan.End()

	// Assemble the upper triangle of A = P·G·Pᵀ compressed by columns
	// (diagonal included): column k holds the couplings of node Perm[k]
	// to its already-eliminated mesh neighbours. The 5-point stencil
	// caps each column at 4 off-diagonals + diagonal.
	perm, iperm := f.ord.Perm, f.ord.IPerm
	gseg := 1 / g.P.SegRes
	ap := make([]int64, nn+1)
	ai := make([]int32, 0, 5*nn)
	ax := make([]float64, 0, 5*nn)
	var nnzA int64
	for k := 0; k < nn; k++ {
		node := int(perm[k])
		ix, iy := node%n, node/n
		diag := g.padG[node]
		couple := func(nb int) {
			diag += gseg
			if j := iperm[nb]; int(j) < k {
				ai = append(ai, j)
				ax = append(ax, -gseg)
			}
		}
		if ix > 0 {
			couple(node - 1)
		}
		if ix < n-1 {
			couple(node + 1)
		}
		if iy > 0 {
			couple(node - n)
		}
		if iy < n-1 {
			couple(node + n)
		}
		ai = append(ai, int32(k))
		ax = append(ax, diag)
		ap[k+1] = int64(len(ai))
		nnzA += ap[k+1] - ap[k] // tril(G) nnz == triu(PGPᵀ) nnz by symmetry
	}
	f.nnzA = nnzA

	// Symbolic pass (up-looking, after Davis's LDL): walk each column's
	// entries up the elimination tree, discovering parents and counting
	// the exact per-column fill of L in O(nnz(L)) time.
	symSpan := obs.StartSpan("sparse-symbolic")
	parent := make([]int32, nn)
	flag := make([]int32, nn)
	lnz := make([]int64, nn)
	for k := 0; k < nn; k++ {
		parent[k] = -1
		flag[k] = int32(k)
		for p := ap[k]; p < ap[k+1]; p++ {
			i := ai[p]
			for int(i) < k && flag[i] != int32(k) {
				if parent[i] == -1 {
					parent[i] = int32(k)
				}
				lnz[i]++
				flag[i] = int32(k)
				i = parent[i]
			}
		}
	}
	f.colPtr = make([]int64, nn+1)
	for k := 0; k < nn; k++ {
		f.colPtr[k+1] = f.colPtr[k] + lnz[k]
	}
	nnzL := f.colPtr[nn]
	if nnzL+int64(nn) > math.MaxInt32 {
		return nil, fmt.Errorf("pgrid: sparse factor nnz %d exceeds int32 indexing", nnzL)
	}
	symSpan.End()

	// Numeric pass: compute L and D column by column, fanned out over the
	// independent nested-dissection subtrees (see numericFactor).
	numSpan := obs.StartSpan("sparse-numeric")
	f.rowIdx = make([]int32, nnzL)
	f.lx = make([]float64, nnzL)
	if err := f.numericFactor(g.P.Workers, ap, ai, ax, parent); err != nil {
		return nil, err
	}
	numSpan.End()

	obs.SetRunInfo("sparse_factor_nnz", f.NNZ())
	obs.SetRunInfo("sparse_fill_ratio", math.Round(f.FillRatio()*1000)/1000)
	return f, nil
}

// factorScratch is the dense working set of one in-flight subtree task
// of the numeric factorization: the row accumulator, the etree-walk
// pattern stack, and the visited-stamp array. Pooled across tasks; y
// is kept zeroed by the elimination loop itself (entries are zeroed as
// they are consumed), and flag needs no reset because stamps are global
// row indices — each row is eliminated exactly once, so a stale stamp
// can never equal a live one (row 0, the zero value, has an empty walk).
type factorScratch struct {
	y       []float64
	pattern []int32
	flag    []int32
}

// subtreeMinRows is the smallest child subtree worth handing to
// its own goroutine; below it the spawn overhead beats the elimination
// work. Purely a scheduling choice — the factor is bit-identical for
// any worker count because independent subtrees own disjoint column
// ranges (a child row's etree walk stops before any separator index).
const subtreeMinRows = 2048

// numericFactor runs the numeric elimination over the nested-dissection
// recursion tree: the two child regions of every separator are
// numerically independent (their columns are referenced by no row
// outside their own subtree until the separator rows, which run after
// both children join), so sibling subtrees factor in parallel across
// goroutines, bounded by the workers knob. Shared state is written
// disjointly: rows of L land in column slots owned by the writing
// subtree, and d/next entries belong to exactly one subtree.
func (f *Factorization) numericFactor(workers int, ap []int64, ai []int32, ax []float64, parent []int32) error {
	nn := f.nn
	workers = parallel.Resolve(workers)
	next := make([]int64, nn) // next free slot per column of L
	copy(next, f.colPtr[:nn])

	pool := sync.Pool{New: func() any {
		return &factorScratch{
			y:       make([]float64, nn),
			pattern: make([]int32, nn),
			flag:    make([]int32, nn),
		}
	}}

	// The first failed row in elimination order wins, so the reported
	// error is schedule-independent.
	var (
		errMu   sync.Mutex
		errRow  = int32(math.MaxInt32)
		nodeErr error
	)
	fail := func(k int32, err error) {
		errMu.Lock()
		if k < errRow {
			errRow, nodeErr = k, err
		}
		errMu.Unlock()
	}

	perm := f.ord.Perm
	// rows eliminates rows [k0, k1): each is a sparse triangular solve
	// whose pattern is an etree walk, with y zeroed back as entries are
	// consumed so a task is O(flops) with no per-row allocation.
	rows := func(scr *factorScratch, k0, k1 int32) {
		y, pattern, flag := scr.y, scr.pattern, scr.flag
		for k := int(k0); k < int(k1); k++ {
			top := nn
			flag[k] = int32(k)
			for p := ap[k]; p < ap[k+1]; p++ {
				i := ai[p]
				y[i] += ax[p]
				ln := 0
				for flag[i] != int32(k) {
					pattern[ln] = i
					ln++
					flag[i] = int32(k)
					i = parent[i]
				}
				for ln > 0 {
					ln--
					top--
					pattern[top] = pattern[ln]
				}
			}
			dk := y[k]
			y[k] = 0
			for ; top < nn; top++ {
				i := pattern[top]
				yi := y[i]
				y[i] = 0
				p2 := next[i]
				for p := f.colPtr[i]; p < p2; p++ {
					y[f.rowIdx[p]] -= f.lx[p] * yi
				}
				lki := yi / f.d[i]
				dk -= lki * yi
				f.rowIdx[p2] = int32(k)
				f.lx[p2] = lki
				next[i] = p2 + 1
			}
			if dk <= 0 {
				fail(int32(k), fmt.Errorf("pgrid: mesh matrix not positive definite at node %d (no pad path?)", perm[k]))
				return
			}
			f.d[k] = dk
		}
	}

	// Fan out down the recursion tree: spawn the left child while the
	// right runs inline, to a depth that keeps roughly 2× workers tasks
	// in flight; small children stay inline.
	spawnDepth := bits.Len(uint(workers))
	tree := f.ord.tree
	var walk func(idx int32, depth int)
	walk = func(idx int32, depth int) {
		nd := tree[idx]
		if nd.left >= 0 {
			l, r := tree[nd.left], tree[nd.right]
			if workers > 1 && depth < spawnDepth &&
				l.hi-l.lo >= subtreeMinRows && r.hi-r.lo >= subtreeMinRows {
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					walk(nd.left, depth+1)
				}()
				walk(nd.right, depth+1)
				wg.Wait()
			} else {
				walk(nd.left, depth+1)
				walk(nd.right, depth+1)
			}
		}
		if nd.sep == nd.hi {
			return
		}
		scr := pool.Get().(*factorScratch)
		rows(scr, nd.sep, nd.hi)
		pool.Put(scr)
	}
	walk(int32(len(tree)-1), 0)
	return nodeErr
}
