package pgrid

import (
	"fmt"
	"math"
	"testing"
)

// solveDense solves the mesh equation G·v = I by dense Gaussian
// elimination with partial pivoting: the numerical oracle the property
// tests check Solve against. It shares nothing with Solve but the pad
// conductances: no ordering, no elimination tree, no sparse storage.
// It is O(nn³) in the node count and O(nn²) in memory (O(N⁶) and O(N⁴)
// on an N×N mesh), which confines it to meshes of a few hundred nodes.
// Inputs and outputs match Solve.
func solveDense(g *Grid, injMA []float64) (*Solution, error) {
	n := g.P.N
	nn := n * n
	if len(injMA) != nn {
		return nil, fmt.Errorf("pgrid: injection length %d, want %d", len(injMA), nn)
	}
	gseg := 1 / g.P.SegRes

	// Assemble the dense conductance matrix (row-major) and RHS.
	a := make([]float64, nn*nn)
	b := make([]float64, nn)
	at := func(r, c int) *float64 { return &a[r*nn+c] }
	for iy := 0; iy < n; iy++ {
		for ix := 0; ix < n; ix++ {
			i := iy*n + ix
			diag := g.padG[i]
			couple := func(j int) {
				diag += gseg
				*at(i, j) -= gseg
			}
			if ix > 0 {
				couple(i - 1)
			}
			if ix < n-1 {
				couple(i + 1)
			}
			if iy > 0 {
				couple(i - n)
			}
			if iy < n-1 {
				couple(i + n)
			}
			*at(i, i) = diag
			b[i] = injMA[i]
		}
	}

	// Gaussian elimination with partial pivoting.
	for col := 0; col < nn; col++ {
		p := col
		for r := col + 1; r < nn; r++ {
			if math.Abs(*at(r, col)) > math.Abs(*at(p, col)) {
				p = r
			}
		}
		if math.Abs(*at(p, col)) < 1e-15 {
			return nil, fmt.Errorf("pgrid: singular mesh matrix at column %d (no pad path?)", col)
		}
		if p != col {
			for c := 0; c < nn; c++ {
				a[col*nn+c], a[p*nn+c] = a[p*nn+c], a[col*nn+c]
			}
			b[col], b[p] = b[p], b[col]
		}
		piv := *at(col, col)
		for r := col + 1; r < nn; r++ {
			f := *at(r, col) / piv
			if f == 0 {
				continue
			}
			*at(r, col) = 0
			for c := col + 1; c < nn; c++ {
				*at(r, c) -= f * *at(col, c)
			}
			b[r] -= f * b[col]
		}
	}
	// Back substitution.
	v := make([]float64, nn)
	for r := nn - 1; r >= 0; r-- {
		sum := b[r]
		for c := r + 1; c < nn; c++ {
			sum -= *at(r, c) * v[c]
		}
		v[r] = sum / *at(r, r)
	}

	sol := &Solution{N: n, Drop: v}
	for i := range v {
		v[i] *= 1e-3 // mV -> V
		if v[i] > sol.Worst {
			sol.Worst = v[i]
		}
	}
	return sol, nil
}

// TestDirectValidation: the dense oracle must reject an injection that
// does not match the mesh, so a sizing slip in a property test fails
// instead of comparing Solve against the wrong system.
func TestDirectValidation(t *testing.T) {
	g, _ := grid(t)
	for _, n := range []int{3, 70 * 70} {
		if _, err := solveDense(g, make([]float64, n)); err == nil {
			t.Fatalf("injection length %d accepted on a %d-node mesh", n, g.P.N*g.P.N)
		}
	}
}
