package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sort"

	"scap/internal/core"
	"scap/internal/fault"
	"scap/internal/logic"
	"scap/internal/pgrid"
	"scap/internal/place"
	"scap/internal/power"
)

// check is one verdict on a pass's outputs.
type check struct {
	name   string
	ok     bool
	detail string
}

// runChecks verifies the last pass's outputs against properties that
// hold for any correct implementation: every detection claim re-grades,
// coverage curves are consistent, the solved grid satisfies Kirchhoff's
// current law, single and batched IR-drop agree, and every physical
// quantity lies in range.
func runChecks(fx *fixture, out *passOut) []check {
	sys := fx.sys
	var cs []check
	for _, fr := range out.sets {
		checked, bad := regrade(sys, fr)
		cs = append(cs, check{"regrade " + fr.Name, bad == 0 && checked > 0,
			fmt.Sprintf("%d of %d detection claims fail to re-detect", bad, checked)})
		cs = append(cs, coverageCurve(fr))
	}
	cs = append(cs, sanity(sys, out))

	// The hottest pattern: deepest combined rail drop where the pass
	// solved every pattern, otherwise the highest conventional B5 SCAP.
	fr, hot := out.sets[0], hottest(out.profs[0], 1)[0]
	nb := sys.D.NumBlocks
	for i := range out.drops {
		d, h := &out.drops[i], &out.drops[hot]
		if d.WorstVDD[nb]+d.WorstVSS[nb] > h.WorstVDD[nb]+h.WorstVSS[nb] {
			hot = i
		}
	}
	dyn, err := sys.DynamicIRDrop(&fr.Patterns[hot], fr.Dom, core.ModelSCAP)
	if err != nil {
		return append(cs, check{"dynamic IR-drop", false, err.Error()})
	}
	vdd := power.InstCurrents(sys.D, dyn.Profile.InstEnergyVDD, dyn.STW)
	vss := power.InstCurrents(sys.D, dyn.Profile.InstEnergyVSS, dyn.STW)
	for _, rail := range []struct {
		name string
		g    *pgrid.Grid
		cur  []float64
		sol  *pgrid.Solution
	}{{"VDD", sys.GridVDD, vdd, dyn.SolVDD}, {"VSS", sys.GridVSS, vss, dyn.SolVSS}} {
		res, norm := kclResidual(rail.g, sys.FP, rail.g.InjectInstCurrents(sys.D, rail.cur), rail.sol)
		cs = append(cs, check{"KCL " + rail.name, norm > 0 && res <= 1e-3*norm,
			fmt.Sprintf("pattern %d: |G v - i| = %.3g mA against |i| = %.3g mA", hot, res, norm)})
	}
	if out.drops != nil {
		worst := 0.0
		for b := 0; b <= nb; b++ {
			worst = math.Max(worst, math.Abs(dyn.WorstVDD[b]-out.drops[hot].WorstVDD[b]))
			worst = math.Max(worst, math.Abs(dyn.WorstVSS[b]-out.drops[hot].WorstVSS[b]))
		}
		cs = append(cs, check{"single vs batched IR-drop", worst <= 1e-6,
			fmt.Sprintf("pattern %d: worst block difference %.3g V", hot, worst)})
	}
	return cs
}

// regrade re-simulates every detection claim of a flow: each fault marked
// Detected must be detected again by the pattern in its DetectedBy entry.
// Claimed patterns are good-simulated 64 to a batch and each fault is
// propagated alone, independently of the ATPG that made the claim.
func regrade(sys *core.System, fr *core.FlowResult) (checked, bad int) {
	l := fr.Faults
	byPat := map[int][]int{}
	for fi, st := range l.Status {
		if st != fault.Detected {
			continue
		}
		checked++
		if p := l.DetectedBy[fi]; p >= 0 && p < len(fr.Patterns) {
			byPat[p] = append(byPat[p], fi)
		} else {
			bad++
		}
	}
	pats := make([]int, 0, len(byPat))
	for p := range byPat {
		pats = append(pats, p)
	}
	sort.Ints(pats)
	var v1, pis []logic.Word
	for lo := 0; lo < len(pats); lo += 64 {
		batch := pats[lo:min(lo+64, len(pats))]
		v1s := make([][]logic.V, len(batch))
		piss := make([][]logic.V, len(batch))
		for s, p := range batch {
			v1s[s], piss[s] = fr.Patterns[p].V1, fr.Patterns[p].PIs
		}
		v1, pis = logic.PackSlots(v1, v1s), logic.PackSlots(pis, piss)
		b := sys.FSim.GoodSim(v1, pis, fr.Dom, logic.ValidMask(len(batch)))
		for s, p := range batch {
			for _, fi := range byPat[p] {
				if sys.FSim.Detect(b, &l.Faults[fi])&(1<<uint(s)) == 0 {
					bad++
				}
			}
		}
	}
	return checked, bad
}

// coverageCurve checks that a flow's cumulative coverage never falls and
// ends at the flow's reported test coverage.
func coverageCurve(fr *core.FlowResult) check {
	c := check{name: "coverage curve " + fr.Name, ok: len(fr.Coverage) == len(fr.Patterns) && len(fr.Coverage) > 0}
	if !c.ok {
		c.detail = fmt.Sprintf("%d points for %d patterns", len(fr.Coverage), len(fr.Patterns))
		return c
	}
	for i := 1; i < len(fr.Coverage); i++ {
		if fr.Coverage[i] < fr.Coverage[i-1] {
			c.ok = false
			c.detail = fmt.Sprintf("falls at pattern %d", i)
			return c
		}
	}
	end, want := fr.Coverage[len(fr.Coverage)-1], fr.Counts.TestCoverage()
	c.ok = math.Abs(end-want) <= 1e-12
	c.detail = fmt.Sprintf("ends at %.6f, test coverage %.6f", end, want)
	return c
}

// sanity checks physical ranges: every switching time frame window lies
// in (0, period] (0 only for a pattern that toggles nothing), and every
// drop lies in [0, VDD).
func sanity(sys *core.System, out *passOut) check {
	vdd := sys.D.Lib.VDD
	bad := 0
	drop := func(vs []float64) {
		for _, v := range vs {
			if !(v >= 0 && v < vdd) {
				bad++
			}
		}
	}
	n := 0
	for _, prof := range out.profs {
		for i := range prof {
			p := &prof[i]
			n++
			if p.Toggles > 0 && !(p.STW > 0 && p.STW <= sys.Period) || p.Toggles == 0 && p.STW != 0 {
				bad++
			}
		}
	}
	for i := range out.drops {
		d := &out.drops[i]
		drop(d.WorstVDD)
		drop(d.WorstVSS)
		if !(d.STW >= 0 && d.STW <= sys.Period) {
			bad++
		}
	}
	if out.mc != nil {
		drop(out.mc.MeanVDD)
		drop(out.mc.P95VDD)
		drop(out.mc.MaxVDD)
	}
	drop(out.stat.Case1.WorstVDD)
	drop(out.stat.Case2.WorstVDD)
	for _, imp := range out.impacts {
		if len(imp.Endpoints) != len(sys.D.Flops) || !(imp.MaxSlowdownFrac >= 0) || math.IsInf(imp.MaxSlowdownFrac, 0) {
			bad++
		}
	}
	if out.grade != nil && len(out.grade.Grades) == 0 {
		bad++
	}
	return check{"physical sanity", bad == 0 && n > 0, fmt.Sprintf("%d out-of-range values over %d profiles", bad, n)}
}

// kclResidual returns ‖G·v − i‖∞ and ‖i‖∞ in mA for one solved rail. G is
// stamped here from pgrid's documented mesh model, not taken from any
// solver: N×N nodes over the die, one SegRes resistor between grid
// neighbours, and PadRes from each of NumPads pads, spaced evenly round
// the die edge and shifted by PadOffset pitches, to its nearest node.
// Currents are in mA and the solution in volts, so node voltages are
// scaled to mV.
func kclResidual(g *pgrid.Grid, fp *place.Floorplan, inj []float64, sol *pgrid.Solution) (res, norm float64) {
	p := g.P
	n := p.N
	padG := make([]float64, n*n)
	per := 2 * (fp.W + fp.H)
	for i := 0; i < p.NumPads; i++ {
		pos := math.Mod(per*(float64(i)+p.PadOffset)/float64(p.NumPads), per)
		var x, y float64
		switch {
		case pos < fp.W:
			x, y = pos, 0
		case pos < fp.W+fp.H:
			x, y = fp.W, pos-fp.W
		case pos < 2*fp.W+fp.H:
			x, y = 2*fp.W+fp.H-pos, fp.H
		default:
			x, y = 0, per-pos
		}
		padG[g.NodeOf(x, y)] += 1 / p.PadRes
	}
	gs := 1 / p.SegRes
	v := func(i int) float64 { return sol.Drop[i] * 1e3 }
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
	return res, norm
}

// digest hashes everything a pass produced: pattern bits, fault counts
// and coverage, profiles, IR-drops, impacts, Monte-Carlo envelopes, the
// detection grade and the artifact size. Equal digests mean equal
// outputs, bit for bit.
func digest(out *passOut) string {
	h := &hasher{h: sha256.New()}
	for si, fr := range out.sets {
		h.ints(len(fr.Patterns), fr.Counts.Total, fr.Counts.Detected, fr.Counts.Aborted, fr.Counts.Untestable)
		for i := range fr.Patterns {
			p := &fr.Patterns[i]
			h.vals(p.V1)
			h.vals(p.PIs)
			h.ints(p.Target, p.Step)
		}
		h.ints(fr.Faults.DetectedBy...)
		h.floats(fr.Coverage...)
		for i := range out.profs[si] {
			p := &out.profs[si][i]
			h.ints(p.Index, p.Toggles)
			h.floats(p.STW, p.ChipSCAPVdd, p.ChipCAPVdd)
			h.floats(p.BlockSCAPVdd...)
		}
	}
	for i := range out.drops {
		h.floats(out.drops[i].STW)
		h.floats(out.drops[i].WorstVDD...)
		h.floats(out.drops[i].WorstVSS...)
	}
	h.ints(out.hot...)
	for _, imp := range out.impacts {
		h.ints(imp.Slowed, imp.Sped, imp.Vanished)
		h.floats(imp.MaxSlowdownFrac)
		for _, e := range imp.Endpoints {
			h.floats(e.Nominal, e.Scaled)
		}
	}
	if out.mc != nil {
		h.floats(out.mc.MeanVDD...)
		h.floats(out.mc.P95VDD...)
		h.floats(out.mc.MaxVDD...)
	}
	if out.grade != nil {
		h.ints(len(out.grade.Grades))
		h.ints(out.grade.Deciles[:]...)
		h.floats(out.grade.MeanSlack, out.grade.BestSlack, out.grade.WorstSlack)
	}
	h.floats(out.stat.ThresholdMW...)
	h.ints(int(out.artifactBytes))
	return hex.EncodeToString(h.h.Sum(nil))
}

// hasher feeds fixed-width encodings of values into a hash.
type hasher struct {
	h   hash.Hash
	buf []byte
}

func (x *hasher) ints(vs ...int) {
	x.buf = x.buf[:0]
	for _, v := range vs {
		x.buf = binary.LittleEndian.AppendUint64(x.buf, uint64(v))
	}
	x.h.Write(x.buf)
}

func (x *hasher) floats(vs ...float64) {
	x.buf = x.buf[:0]
	for _, v := range vs {
		x.buf = binary.LittleEndian.AppendUint64(x.buf, math.Float64bits(v))
	}
	x.h.Write(x.buf)
}

func (x *hasher) vals(vs []logic.V) {
	x.buf = x.buf[:0]
	for _, v := range vs {
		x.buf = append(x.buf, byte(v))
	}
	x.h.Write(x.buf)
}
