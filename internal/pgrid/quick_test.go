package pgrid

import (
	"math"
	"testing"
	"testing/quick"

	"scap/internal/place"
)

// smallGrid builds a low-resolution mesh for fast property checks.
func smallGrid(t *testing.T) *Grid {
	t.Helper()
	p := DefaultParams()
	p.N = 10
	g, err := New(place.NewFloorplan(), p)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestQuickSuperposition: the mesh is linear, so the solution of a sum of
// injections equals the sum of solutions.
func TestQuickSuperposition(t *testing.T) {
	g := smallGrid(t)
	n := g.P.N * g.P.N
	f := func(seedA, seedB uint32, ia, ib uint16) bool {
		injA := make([]float64, n)
		injB := make([]float64, n)
		injA[int(ia)%n] = 1 + float64(seedA%100)
		injB[int(ib)%n] = 1 + float64(seedB%100)
		both := make([]float64, n)
		for i := range both {
			both[i] = injA[i] + injB[i]
		}
		sa, err := g.Solve(injA)
		if err != nil {
			return false
		}
		sb, err := g.Solve(injB)
		if err != nil {
			return false
		}
		sc, err := g.Solve(both)
		if err != nil {
			return false
		}
		for i := range sc.Drop {
			want := sa.Drop[i] + sb.Drop[i]
			if math.Abs(sc.Drop[i]-want) > 1e-12*(1+want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDropNonNegativeAndBounded: any non-negative injection yields
// non-negative drops bounded by total current times the worst-case path
// resistance.
func TestQuickDropNonNegativeAndBounded(t *testing.T) {
	g := smallGrid(t)
	n := g.P.N * g.P.N
	bound := float64(2*g.P.N)*g.P.SegRes + g.P.PadRes // generous series bound, Ω
	f := func(picks [6]uint16, amps [6]uint8) bool {
		inj := make([]float64, n)
		total := 0.0
		for i, p := range picks {
			a := float64(amps[i]%50) + 1
			inj[int(p)%n] += a
			total += a
		}
		sol, err := g.Solve(inj)
		if err != nil {
			return false
		}
		for _, d := range sol.Drop {
			if d < 0 || d > total*bound*1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMonotoneInCurrent: adding current anywhere never lowers any
// node's drop.
func TestQuickMonotoneInCurrent(t *testing.T) {
	g := smallGrid(t)
	n := g.P.N * g.P.N
	f := func(base uint16, extra uint16) bool {
		injA := make([]float64, n)
		injA[int(base)%n] = 10
		injB := append([]float64(nil), injA...)
		injB[int(extra)%n] += 5
		sa, err := g.Solve(injA)
		if err != nil {
			return false
		}
		sb, err := g.Solve(injB)
		if err != nil {
			return false
		}
		for i := range sa.Drop {
			if sb.Drop[i] < sa.Drop[i]-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
