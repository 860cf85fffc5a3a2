package pgrid

import (
	"math"
	"math/rand"
	"testing"

	"scap/internal/netlist"
	"scap/internal/parasitic"
	"scap/internal/place"
	"scap/internal/power"
	"scap/internal/soc"
)

func grid(t *testing.T) (*Grid, *place.Floorplan) {
	t.Helper()
	fp := place.NewFloorplan()
	g, err := New(fp, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return g, fp
}

func TestZeroCurrentZeroDrop(t *testing.T) {
	g, _ := grid(t)
	sol, err := g.Solve(make([]float64, g.P.N*g.P.N))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range sol.Drop {
		if d != 0 {
			t.Fatal("drop without current")
		}
	}
	if sol.Worst != 0 {
		t.Fatal("worst should be 0")
	}
}

func TestUniformCurrentCenterWorst(t *testing.T) {
	g, fp := grid(t)
	inj := make([]float64, g.P.N*g.P.N)
	for i := range inj {
		inj[i] = 0.02
	}
	sol, err := g.Solve(inj)
	if err != nil {
		t.Fatal(err)
	}
	center := sol.At(g, fp.W/2, fp.H/2)
	corner := sol.At(g, fp.W*0.02, fp.H*0.02)
	if center <= corner {
		t.Fatalf("center drop %v not above corner %v", center, corner)
	}
	if sol.Worst <= 0 {
		t.Fatal("no drop under uniform load")
	}
	for _, d := range sol.Drop {
		if d < 0 {
			t.Fatal("negative drop")
		}
	}
}

func TestLinearity(t *testing.T) {
	g, _ := grid(t)
	inj := make([]float64, g.P.N*g.P.N)
	inj[g.P.N*g.P.N/2+g.P.N/2] = 50
	s1, err := g.Solve(inj)
	if err != nil {
		t.Fatal(err)
	}
	for i := range inj {
		inj[i] *= 2
	}
	s2, err := g.Solve(inj)
	if err != nil {
		t.Fatal(err)
	}
	// The solve is exact to rounding, so doubling the current doubles
	// every drop to within rounding.
	for i := range s1.Drop {
		if math.Abs(s2.Drop[i]-2*s1.Drop[i]) > 1e-12*2*s1.Drop[i] {
			t.Fatalf("node %d: doubling current gave %v vs %v", i, s2.Drop[i], 2*s1.Drop[i])
		}
	}
}

func TestPadsSinkCurrent(t *testing.T) {
	// A node adjacent to a pad must see much less drop than the die center
	// under the same local injection.
	g, fp := grid(t)
	injCenter := make([]float64, g.P.N*g.P.N)
	injCenter[g.NodeOf(fp.W/2, fp.H/2)] = 1
	sc, err := g.Solve(injCenter)
	if err != nil {
		t.Fatal(err)
	}
	injEdge := make([]float64, g.P.N*g.P.N)
	injEdge[g.NodeOf(0, 0)] = 1
	se, err := g.Solve(injEdge)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Worst <= se.Worst {
		t.Fatalf("center injection (%v) should hurt more than corner (%v)", sc.Worst, se.Worst)
	}
}

func TestSolveValidation(t *testing.T) {
	g, _ := grid(t)
	if _, err := g.Solve(make([]float64, 3)); err == nil {
		t.Fatal("wrong injection length accepted")
	}
	for _, bad := range []func(*Params){
		func(p *Params) { p.N = 0 },
		func(p *Params) { p.PadRes = 0 },
	} {
		p := DefaultParams()
		bad(&p)
		if _, err := New(place.NewFloorplan(), p); err == nil {
			t.Fatalf("bad params %+v accepted", p)
		}
	}
}

// meanPerBlock returns the average node drop inside each block
// rectangle, plus a chip-level entry.
func meanPerBlock(s *Solution, g *Grid, numBlocks int) []float64 {
	sum := make([]float64, numBlocks+1)
	cnt := make([]int, numBlocks+1)
	for node, d := range s.Drop {
		if b := g.block[node]; b >= 0 && int(b) < numBlocks {
			sum[b] += d
			cnt[b]++
		}
		sum[numBlocks] += d
		cnt[numBlocks]++
	}
	for i := range sum {
		if cnt[i] > 0 {
			sum[i] /= float64(cnt[i])
		}
	}
	return sum
}

func TestStatisticalSOCB5Hottest(t *testing.T) {
	d, _, err := soc.Generate(soc.DefaultConfig(64))
	if err != nil {
		t.Fatal(err)
	}
	fp, _ := place.Place(d, 1)
	if _, err := parasitic.Extract(d, fp, parasitic.DefaultParams()); err != nil {
		t.Fatal(err)
	}
	g, err := New(fp, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	cur := power.StatCurrents(d, 0.3, 10)
	inj := g.InjectInstCurrents(d, cur)
	sol, err := g.Solve(inj)
	if err != nil {
		t.Fatal(err)
	}
	worst := sol.WorstPerBlock(g, d.NumBlocks)
	for b := 0; b < d.NumBlocks; b++ {
		if b != soc.B5 && worst[b] >= worst[soc.B5] {
			t.Fatalf("B%d drop %v >= B5 drop %v", b+1, worst[b], worst[soc.B5])
		}
	}
	if worst[d.NumBlocks] < worst[soc.B5] {
		t.Fatal("chip worst below B5 worst")
	}
	mean := meanPerBlock(sol, g, d.NumBlocks)
	for b := range mean {
		if mean[b] > worst[b] {
			t.Fatalf("block %d mean %v above worst %v", b, mean[b], worst[b])
		}
	}
	t.Logf("worst drops per block: %v (chip %v)", worst[:d.NumBlocks], worst[d.NumBlocks])
}

func TestNodeMapping(t *testing.T) {
	g, fp := grid(t)
	// NodeOf and NodeXY must roughly invert each other.
	for _, node := range []int{0, 37, g.P.N*g.P.N - 1, g.P.N * 7} {
		x, y := g.NodeXY(node)
		if got := g.NodeOf(x, y); got != node {
			t.Fatalf("node %d -> (%v,%v) -> %d", node, x, y, got)
		}
	}
	// Out-of-range coordinates clamp.
	if g.NodeOf(-5, -5) != 0 {
		t.Fatal("negative coords should clamp to node 0")
	}
	if g.NodeOf(fp.W+10, fp.H+10) != g.P.N*g.P.N-1 {
		t.Fatal("oversized coords should clamp to last node")
	}
}

// TestBatchInjectMatchesInjectInstCurrents: per-instance currents
// written straight into a lane solve to the same bits as the per-node
// vector InjectInstCurrents builds from them, whether the lane takes the
// dense vector (Inject) or its instances one by one in ascending order
// (AddInst), and they land only in their lanes. Every third current is
// zero, as for an instance that did not switch.
func TestBatchInjectMatchesInjectInstCurrents(t *testing.T) {
	d, _, err := soc.Generate(soc.DefaultConfig(96))
	if err != nil {
		t.Fatal(err)
	}
	fp, _ := place.Place(d, 1)
	if _, err := parasitic.Extract(d, fp, parasitic.DefaultParams()); err != nil {
		t.Fatal(err)
	}
	g, err := New(fp, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	cur := power.StatCurrents(d, 0.3, 10)
	for i := 0; i < len(cur); i += 3 {
		cur[i] = 0
	}
	want, err := g.Solve(g.InjectInstCurrents(d, cur))
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.NewBatch(d)
	if err != nil {
		t.Fatal(err)
	}
	const dense, sparse = 2, 0
	b.Inject(dense, cur)
	for i, mA := range cur {
		b.AddInst(sparse, netlist.InstID(i), mA)
	}
	b.Sweep(2)
	for k := range b.y {
		for l := 0; l < Lanes; l++ {
			if l != dense && l != sparse && b.y[k][l] != 0 {
				t.Fatalf("lane %d picked up %v at position %d", l, b.y[k][l], k)
			}
		}
	}
	for _, lane := range []int{dense, sparse} {
		got := b.solution(lane)
		for node := range want.Drop {
			if math.Float64bits(got.Drop[node]) != math.Float64bits(want.Drop[node]) {
				t.Fatalf("lane %d node %d: %v != %v", lane, node, got.Drop[node], want.Drop[node])
			}
		}
		worst := b.WorstPerBlock(lane, d.NumBlocks)
		for blk, w := range want.WorstPerBlock(g, d.NumBlocks) {
			if math.Float64bits(worst[blk]) != math.Float64bits(w) {
				t.Fatalf("lane %d block %d: lane worst %v, Solve worst %v", lane, blk, worst[blk], w)
			}
		}
	}
}

// TestSolveSatisfiesKCL checks Kirchhoff's current law on meshes too
// large for the dense oracle: at every node the current leaving through
// the mesh segments and the pad equals the injected current, to 1e-9 of
// the largest injection. G is stamped here from the mesh model (SegRes
// between neighbours, PadRes from each Floorplan.PadXY pad to its
// nearest node), not read from the factorization.
func TestSolveSatisfiesKCL(t *testing.T) {
	for _, n := range []int{40, 128} {
		fp := place.NewFloorplan()
		p := DefaultParams()
		p.N = n
		g, err := New(fp, p)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(n)))
		inj := make([]float64, n*n)
		for i := range inj {
			inj[i] = 0.05 * rng.Float64()
		}
		for h := 0; h < 20; h++ {
			inj[rng.Intn(len(inj))] += 20 * rng.Float64()
		}
		sol, err := g.Solve(inj)
		if err != nil {
			t.Fatal(err)
		}
		padG := make([]float64, n*n)
		for i := 0; i < p.NumPads; i++ {
			x, y := fp.PadXY(float64(i)+p.PadOffset, p.NumPads)
			padG[g.NodeOf(x, y)] += 1 / p.PadRes
		}
		gs := 1 / p.SegRes
		v := func(i int) float64 { return sol.Drop[i] * 1e3 } // V -> mV
		res, norm := 0.0, 0.0
		for iy := 0; iy < n; iy++ {
			for ix := 0; ix < n; ix++ {
				i := iy*n + ix
				r := padG[i]*v(i) - inj[i]
				if ix > 0 {
					r += gs * (v(i) - v(i-1))
				}
				if ix < n-1 {
					r += gs * (v(i) - v(i+1))
				}
				if iy > 0 {
					r += gs * (v(i) - v(i-n))
				}
				if iy < n-1 {
					r += gs * (v(i) - v(i+n))
				}
				res = math.Max(res, math.Abs(r))
				norm = math.Max(norm, math.Abs(inj[i]))
			}
		}
		if res > 1e-9*norm {
			t.Errorf("n=%d: |G v - i| = %.3g mA against |i| = %.3g mA", n, res, norm)
		}
		t.Logf("n=%d: relative KCL residual %.3g", n, res/norm)
	}
}
