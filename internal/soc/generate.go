package soc

import (
	"fmt"
	"math/rand"

	"scap/internal/cell"
	"scap/internal/logic"
	"scap/internal/netlist"
)

// gate-kind mix for the synthetic clouds; weights approximate the cell mix
// of a mapped 180 nm design (NAND/NOR/INV dominant).
var kindMix = []struct {
	kind   cell.Kind
	weight int
}{
	{cell.Nand2, 18}, {cell.Nor2, 12}, {cell.Inv, 14}, {cell.Buf, 6},
	{cell.And2, 8}, {cell.Or2, 8}, {cell.Nand3, 7}, {cell.Nor3, 5},
	{cell.Xor2, 5}, {cell.Xnor2, 3}, {cell.Mux2, 4}, {cell.Aoi21, 4},
	{cell.Oai21, 4}, {cell.Nand4, 3}, {cell.Nor4, 2}, {cell.And3, 3},
	{cell.Or3, 3}, {cell.Aoi22, 2}, {cell.Oai22, 2}, {cell.And4, 1},
	{cell.Or4, 1},
}

var kindMixTotal = func() int {
	t := 0
	for _, km := range kindMix {
		t += km.weight
	}
	return t
}()

// kindsByArity buckets the mix by input count for probability-balanced
// substitution.
var kindsByArity = func() map[int][]struct {
	kind   cell.Kind
	weight int
} {
	m := map[int][]struct {
		kind   cell.Kind
		weight int
	}{}
	for _, km := range kindMix {
		n := km.kind.NumInputs()
		m[n] = append(m[n], km)
	}
	return m
}()

func pickKind(r *rand.Rand) cell.Kind {
	n := r.Intn(kindMixTotal)
	for _, km := range kindMix {
		n -= km.weight
		if n < 0 {
			return km.kind
		}
	}
	return cell.Nand2
}

// pickKindArity picks a weighted random kind with the given input count.
func pickKindArity(r *rand.Rand, arity int) cell.Kind {
	bucket := kindsByArity[arity]
	total := 0
	for _, km := range bucket {
		total += km.weight
	}
	n := r.Intn(total)
	for _, km := range bucket {
		n -= km.weight
		if n < 0 {
			return km.kind
		}
	}
	return bucket[0].kind
}

// Generate builds the synthetic SOC described by cfg and returns the design
// together with the realized allocation plan.
func Generate(cfg Config) (*netlist.Design, *Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	d := netlist.New("turbo-eagle-repro", cell.New180nm())
	d.NumBlocks = NumBlocks
	for _, ds := range cfg.Domains {
		d.Domains = append(d.Domains, netlist.DomainInfo{
			Name: ds.Name, FreqMHz: ds.FreqMHz, PeriodNs: 1000 / ds.FreqMHz,
		})
	}

	pis := make([]netlist.NetID, cfg.NumPIs)
	for i := range pis {
		pis[i] = d.AddPI(fmt.Sprintf("pi%d", i))
	}
	// Bus-enable pins gate every cross-block import (real bus interfaces
	// have output enables). With fill-0 they stay at 0, isolating blocks
	// from each other's switching — the property the paper's procedure
	// exploits; random fill drives the buses half the time.
	busEn := make([]netlist.NetID, cfg.NumBusEnables)
	for i := range busEn {
		busEn[i] = d.AddPI(fmt.Sprintf("bus_en%d", i))
	}

	plan := &Plan{Scale: cfg.Scale, TestPeriodNs: cfg.TestPeriodNs}
	// exports[dom] collects gate output nets available for cross-block
	// import within the same clock domain (the bus stand-in).
	exports := make([][]netlist.NetID, len(cfg.Domains))
	var poCandidates []netlist.NetID

	g := &islandGen{cfg: &cfg, d: d, r: r, pis: pis, busEn: busEn,
		fanout:  make(map[netlist.NetID]int),
		zeroVal: make(map[netlist.NetID]logic.V),
		prob:    make(map[netlist.NetID]float64)}
	for _, p := range pis {
		g.zeroVal[p] = logic.Zero
		g.prob[p] = 0.5
	}
	for _, p := range busEn {
		g.zeroVal[p] = logic.Zero
		g.prob[p] = 0.5
	}

	for dom := range cfg.Domains {
		ds := &cfg.Domains[dom]
		dp := DomainPlan{Name: ds.Name, FreqMHz: ds.FreqMHz}
		shareSum := 0.0
		for _, s := range ds.BlockShare {
			shareSum += s
		}
		for b := 0; b < NumBlocks; b++ {
			if ds.BlockShare[b] == 0 {
				continue
			}
			nFF := int(float64(ds.FullFlops)*ds.BlockShare[b]/shareSum)/cfg.Scale + 1
			tops := g.island(dom, b, nFF, &exports[dom])
			poCandidates = append(poCandidates, tops...)
			dp.FlopsPerBlock[b] = nFF
			dp.Flops += nFF
		}
		plan.Domains = append(plan.Domains, dp)
	}

	// Mark primary outputs on a sample of deep nets (unmeasured during
	// at-speed test, per the paper, but present in the design).
	for i := 0; i < cfg.NumPOs && len(poCandidates) > 0; i++ {
		d.MarkPO(poCandidates[r.Intn(len(poCandidates))])
	}

	// Tag the negative-edge flops: a handful of clka-domain flops in B6
	// (the paper keeps its 22 negative-edge cells on a separate chain).
	want := (cfg.NegEdgeFlops + cfg.Scale - 1) / cfg.Scale
	for _, f := range d.Flops {
		if want == 0 {
			break
		}
		inst := d.Inst(f)
		if inst.Domain == 0 && inst.Block == B6 {
			inst.NegEdge = true
			want--
		}
	}

	if err := d.Check(); err != nil {
		return nil, nil, fmt.Errorf("soc: generated design invalid: %w", err)
	}
	return d, plan, nil
}

// probOf returns the tracked signal probability of a net (0.5 if unknown).
func (g *islandGen) probOf(n netlist.NetID) float64 {
	if p, ok := g.prob[n]; ok {
		return p
	}
	return 0.5
}

// correlated reports whether candidate net c duplicates, inverts, or is
// inverted by one of the already chosen inputs (one level deep).
func (g *islandGen) correlated(chosen []netlist.NetID, c netlist.NetID) bool {
	invOf := func(n netlist.NetID) netlist.NetID {
		if drv := g.d.Nets[n].Driver; drv != netlist.NoInst {
			inst := g.d.Inst(drv)
			if inst.Kind == cell.Inv || inst.Kind == cell.Buf {
				return inst.In[0]
			}
		}
		return netlist.NoNet
	}
	ci := invOf(c)
	for _, p := range chosen {
		if p == c || invOf(p) == c || ci == p || (ci != netlist.NoNet && ci == invOf(p)) {
			return true
		}
	}
	return false
}

// balanceDist measures how far a probability sits from 0.5.
func balanceDist(p float64) float64 {
	if p < 0.5 {
		return 0.5 - p
	}
	return p - 0.5
}

// islandGen carries the state shared across island builds.
type islandGen struct {
	cfg    *Config
	d      *netlist.Design
	r      *rand.Rand
	pis    []netlist.NetID
	busEn  []netlist.NetID
	fanout map[netlist.NetID]int
	// zeroVal caches each net's value under the all-zero state (flops and
	// PIs at 0); it drives the quiet-zero flop D-input bias.
	zeroVal map[netlist.NetID]logic.V
	// prob tracks an approximate signal probability P(net=1) under random
	// states, propagated with an independence assumption. Gate kinds are
	// chosen to keep deep nets near 0.5 — uncorrected random logic drifts
	// to extreme probabilities with depth, which freezes state bits and
	// destroys transition-fault testability (real mapped logic is
	// probability-balanced).
	prob map[netlist.NetID]float64
}

// probEval estimates P(out=1) for a gate kind given input probabilities,
// assuming input independence.
func probEval(k cell.Kind, p []float64) float64 {
	prod := func(xs []float64) float64 {
		v := 1.0
		for _, x := range xs {
			v *= x
		}
		return v
	}
	inv := func(xs []float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = 1 - x
		}
		return out
	}
	switch k {
	case cell.Inv:
		return 1 - p[0]
	case cell.Buf:
		return p[0]
	case cell.And2, cell.And3, cell.And4:
		return prod(p)
	case cell.Nand2, cell.Nand3, cell.Nand4:
		return 1 - prod(p)
	case cell.Or2, cell.Or3, cell.Or4:
		return 1 - prod(inv(p))
	case cell.Nor2, cell.Nor3, cell.Nor4:
		return prod(inv(p))
	case cell.Xor2:
		return p[0] + p[1] - 2*p[0]*p[1]
	case cell.Xnor2:
		return 1 - (p[0] + p[1] - 2*p[0]*p[1])
	case cell.Mux2:
		return (1-p[2])*p[0] + p[2]*p[1]
	case cell.Aoi21:
		ab := p[0] * p[1]
		return 1 - (ab + p[2] - ab*p[2])
	case cell.Oai21:
		return 1 - (p[0]+p[1]-p[0]*p[1])*p[2]
	case cell.Aoi22:
		ab, cd := p[0]*p[1], p[2]*p[3]
		return 1 - (ab + cd - ab*cd)
	case cell.Oai22:
		return 1 - (p[0]+p[1]-p[0]*p[1])*(p[2]+p[3]-p[2]*p[3])
	default:
		return 0.5
	}
}

// island creates one (domain, block) logic island with nFF flops and a
// combinational cloud, importing a CrossFrac fraction of gate inputs from
// nets already exported by other blocks of the same domain. It returns the
// island's deepest-level nets (primary-output candidates) and appends its
// own exportable nets to *exports.
func (g *islandGen) island(dom, block, nFF int, exports *[]netlist.NetID) []netlist.NetID {
	cfg, d, r := g.cfg, g.d, g.r
	prefix := fmt.Sprintf("%s_%s", cfg.Domains[dom].Name, BlockName(block))

	// Flop output nets first; flop instances are added last, once their D
	// nets exist.
	qnets := make([]netlist.NetID, nFF)
	for i := range qnets {
		qnets[i] = d.AddNet(fmt.Sprintf("%s_ff%d_q", prefix, i))
		g.zeroVal[qnets[i]] = logic.Zero
		g.prob[qnets[i]] = 0.5
	}

	// Level 0: flop outputs plus a few chip PIs.
	depth := cfg.Depth
	byLevel := make([][]netlist.NetID, depth+1)
	byLevel[0] = append([]netlist.NetID{}, qnets...)
	nPI := 2 + nFF/16
	for i := 0; i < nPI && len(g.pis) > 0; i++ {
		byLevel[0] = append(byLevel[0], g.pis[r.Intn(len(g.pis))])
	}

	nGates := int(float64(nFF) * cfg.GatesPerFlop)
	if nGates < depth {
		nGates = depth
	}

	// pick chooses an input net from levels [lo, hi], preferring the less
	// loaded of two random candidates to keep fanout balanced.
	pick := func(lo, hi int) netlist.NetID {
		for tries := 0; ; tries++ {
			lv := lo + r.Intn(hi-lo+1)
			if len(byLevel[lv]) > 0 {
				cands := byLevel[lv]
				a := cands[r.Intn(len(cands))]
				b := cands[r.Intn(len(cands))]
				if g.fanout[b] < g.fanout[a] {
					a = b
				}
				g.fanout[a]++
				return a
			}
			if tries > 4*depth {
				// Degenerate small island: fall back to level 0.
				a := byLevel[0][r.Intn(len(byLevel[0]))]
				g.fanout[a]++
				return a
			}
		}
	}

	for gi := 0; gi < nGates; gi++ {
		// The first `depth` gates seed one net per level so every level is
		// populated; the rest are spread uniformly.
		var lv int
		if gi < depth {
			lv = gi + 1
		} else {
			lv = 1 + r.Intn(depth)
		}
		kind := pickKind(r)
		nin := kind.NumInputs()
		in := make([]netlist.NetID, nin)
		// Pin 0 comes from the immediately preceding level, creating long
		// sensitizable chains through the cloud.
		in[0] = pick(lv-1, lv-1)
		for p := 1; p < nin; p++ {
			if r.Float64() < cfg.CrossFrac && len(*exports) > 0 && len(g.busEn) > 0 {
				imp := (*exports)[r.Intn(len(*exports))]
				g.fanout[imp]++
				// Gate the import with a bus enable so untargeted blocks
				// can be isolated by filling the enables with 0.
				en := g.busEn[r.Intn(len(g.busEn))]
				gated := d.AddNet(fmt.Sprintf("%s_bus%d_%d", prefix, gi, p))
				d.AddInst(fmt.Sprintf("%s_busg%d_%d", prefix, gi, p), cell.And2,
					[]netlist.NetID{imp, en}, gated, block)
				g.prob[gated] = 0.5 * g.probOf(imp)
				g.zeroVal[gated] = logic.Zero
				in[p] = gated
				continue
			}
			in[p] = pick(0, lv-1)
			// Avoid trivially correlated inputs (duplicates or a signal and
			// its direct inverse), which create constant nets like
			// NAND(a, !a) that poison transition-fault testability.
			for tries := 0; tries < 4 && g.correlated(in[:p], in[p]); tries++ {
				in[p] = pick(0, lv-1)
			}
		}
		// Probability balancing: among same-arity candidates, keep the one
		// whose output probability stays closest to 0.5.
		ps := make([]float64, nin)
		for p, n := range in {
			ps[p] = g.probOf(n)
		}
		best, bestDist := kind, balanceDist(probEval(kind, ps))
		for try := 0; try < 3; try++ {
			alt := pickKindArity(r, nin)
			if dd := balanceDist(probEval(alt, ps)); dd < bestDist {
				best, bestDist = alt, dd
			}
		}
		kind = best
		out := d.AddNet(fmt.Sprintf("%s_n%d", prefix, gi))
		d.AddInst(fmt.Sprintf("%s_g%d", prefix, gi), kind, in, out, block)
		byLevel[lv] = append(byLevel[lv], out)
		g.prob[out] = probEval(kind, ps)
		// Track the gate's value under the all-zero state.
		zin := make([]logic.V, nin)
		for p, n := range in {
			zin[p] = g.zeroVal[n]
		}
		g.zeroVal[out] = cell.Eval(kind, zin)
	}

	// Enable pool for the hold muxes: each enable is a two-input AND decode
	// of shallow state (the synthesis image of clock-gating conditions).
	// At least one input sits at 0 in the all-zero state, so the enable is
	// off there and a single scan care bit almost never flips it — under
	// fill-0 the gated flops stay held, while random fill activates an
	// enable with probability ~0.25.
	nEn := 2 + nFF/16
	enables := make([]netlist.NetID, 0, nEn)
	pickZero := func() netlist.NetID {
		n := pick(0, 2)
		for tries := 0; tries < 8 && g.zeroVal[n] != logic.Zero; tries++ {
			n = pick(0, 2)
		}
		return n
	}
	for i := 0; i < nEn; i++ {
		a, b := pickZero(), pick(0, 2)
		en := d.AddNet(fmt.Sprintf("%s_en%d", prefix, i))
		d.AddInst(fmt.Sprintf("%s_enand%d", prefix, i), cell.And2,
			[]netlist.NetID{a, b}, en, block)
		g.zeroVal[en] = g.zeroVal[a].And(g.zeroVal[b])
		g.prob[en] = g.probOf(a) * g.probOf(b)
		enables = append(enables, en)
	}

	// Flop D inputs come from the deep two-thirds of the cloud so that
	// capture paths are long (the paper's STW ~ half the test period).
	deepLo := 2 * depth / 3
	if deepLo < 1 {
		deepLo = 1
	}
	for i, q := range qnets {
		dnet := pick(deepLo, depth)
		// Quiet-zero bias: most flops re-capture 0 when the design sits in
		// the all-zero state, so that state is quasi-quiescent.
		if r.Float64() < cfg.QuietZeroBias {
			for tries := 0; tries < 40 && g.zeroVal[dnet] != logic.Zero; tries++ {
				dnet = pick(deepLo, depth)
			}
		}
		din := dnet
		if r.Float64() < cfg.HoldFrac {
			// Hold mux: the flop keeps its value unless its enable is on.
			en := enables[r.Intn(len(enables))]
			g.fanout[en]++
			g.fanout[q]++
			mo := d.AddNet(fmt.Sprintf("%s_hold%d", prefix, i))
			d.AddInst(fmt.Sprintf("%s_holdm%d", prefix, i), cell.Mux2,
				[]netlist.NetID{q, dnet, en}, mo, block)
			g.zeroVal[mo] = logic.Zero
			pe := g.probOf(en)
			g.prob[mo] = (1-pe)*0.5 + pe*g.probOf(dnet)
			din = mo
		}
		f := d.AddInst(fmt.Sprintf("%s_ff%d", prefix, i), cell.DFF,
			[]netlist.NetID{din}, q, block)
		d.SetDomain(f, dom, false)
		g.zeroVal[q] = logic.Zero
	}

	// Export mid-and-deep nets for cross-block wiring; return deepest nets
	// as PO candidates.
	for lv := depth / 2; lv <= depth; lv++ {
		*exports = append(*exports, byLevel[lv]...)
	}
	return byLevel[depth]
}
