package repro

import (
	"fmt"
	"strings"

	"scap/internal/atpg"
	"scap/internal/core"
	"scap/internal/ftas"
	"scap/internal/sched"
	"scap/internal/soc"
	"scap/internal/textplot"
)

// ExtFunctional quantifies the paper's premise: test-mode switching far
// exceeds mission-mode switching.
func (r *Runner) ExtFunctional() (string, error) {
	_, prof, err := r.Conventional()
	if err != nil {
		return "", err
	}
	fn, err := r.Sys.FunctionalPowerSim(0, 40, r.Sys.Cfg.Seed+99)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(header("Extension: functional vs test switching power"))
	nb := r.Sys.D.NumBlocks
	var sumCap, sumScap float64
	for i := range prof {
		sumCap += prof[i].ChipCAPVdd
		sumScap += prof[i].ChipSCAPVdd
	}
	meanCap := sumCap / float64(len(prof))
	meanScap := sumScap / float64(len(prof))
	fmt.Fprintf(&b, "functional baseline (%d mission cycles): chip %.2f mW, B5 %.2f mW\n",
		fn.Cycles, fn.MeanPowerMW[nb], fn.MeanPowerMW[soc.B5])
	fmt.Fprintf(&b, "conventional test set: mean CAP %.2f mW (%.1fx functional), mean SCAP %.2f mW (%.1fx)\n",
		meanCap, meanCap/fn.MeanPowerMW[nb], meanScap, meanScap/fn.MeanPowerMW[nb])
	fmt.Fprintf(&b, "B5 test/functional SCAP ratio: %.1fx\n",
		core.TestVsFunctionalRatio(prof, fn, soc.B5))
	fmt.Fprintf(&b, "\npaper: \"the switching activity during test is far greater and "+
		"non-uniform than during functional operation\" — confirmed: %v\n",
		meanCap > 1.3*fn.MeanPowerMW[nb])
	return b.String(), nil
}

// ExtFTAS runs the faster-than-at-speed overkill sweep on the hottest
// conventional pattern (the authors' companion ICCAD'06 analysis).
func (r *Runner) ExtFTAS() (string, error) {
	conv, prof, err := r.Conventional()
	if err != nil {
		return "", err
	}
	hot := 0
	for i := range prof {
		if prof[i].ChipSCAPVdd > prof[hot].ChipSCAPVdd {
			hot = i
		}
	}
	imp, _, err := r.Sys.DelayImpact(&conv.Patterns[hot], 0)
	if err != nil {
		return "", err
	}
	res, err := ftas.Sweep(imp, r.Sys.Period/4, r.Sys.Period, r.Sys.Period/20, 0)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(header("Extension: faster-than-at-speed overkill sweep (pattern #" + fmt.Sprint(hot) + ")"))
	fmt.Fprintf(&b, "%10s %9s %10s %11s %9s\n", "period ns", "freq MHz", "nom-fails", "drop-fails", "overkill")
	for _, p := range res.Points {
		fmt.Fprintf(&b, "%10.2f %9.1f %10d %11d %9d\n",
			p.PeriodNs, p.FreqMHz, p.NomViolations, p.ScaledViolations, p.Overkill)
	}
	if res.MinPeriodNoOverkillNs > 0 {
		fmt.Fprintf(&b, "\nfastest overkill-free capture: %.2f ns (%.1f MHz)\n",
			res.MinPeriodNoOverkillNs, res.MaxSafeFreqMHz)
	}
	fmt.Fprintf(&b, "shape check: IR-drop overkill appears before genuine small-delay screening as frequency rises\n")
	return b.String(), nil
}

// ExtQuality grades the conventional set's detection-path delays.
func (r *Runner) ExtQuality() (string, error) {
	conv, _, err := r.Conventional()
	if err != nil {
		return "", err
	}
	rep, err := r.Sys.GradeDetections(conv, 3000)
	if err != nil {
		return "", err
	}
	labels := make([]string, 10)
	counts := make([]int, 10)
	for i := 0; i < 10; i++ {
		labels[i] = fmt.Sprintf("%d-%d%%", i*10, (i+1)*10)
		counts[i] = rep.Deciles[i]
	}
	var b strings.Builder
	b.WriteString(header("Extension: detection-path quality (small-delay-defect screening)"))
	fmt.Fprintf(&b, "graded %d detections at T = %.4g ns: slack best %.2f / mean %.2f / worst %.2f ns\n\n",
		len(rep.Grades), rep.PeriodNs, rep.BestSlack, rep.MeanSlack, rep.WorstSlack)
	b.WriteString(textplot.Histogram(counts, labels, 48, "detect-path delay as fraction of the period"))
	fmt.Fprintf(&b, "\nmass on the left = short-path detections that let small delay defects escape\n"+
		"(the motivation for faster-than-at-speed capture, tempered by its IR-drop overkill above)\n")
	return b.String(), nil
}

// ExtSched schedules all six domains' tests under a power budget. clka's
// test is the conventional set; every other domain gets its own
// random-fill ATPG run.
func (r *Runner) ExtSched() (string, error) {
	sys := r.Sys
	conv, convProf, err := r.Conventional()
	if err != nil {
		return "", err
	}
	var tests []sched.DomainTest
	shiftMHz := 10.0
	maxChain := float64(sys.SC.MaxChainLen())
	var b strings.Builder
	b.WriteString(header("Extension: power-constrained SOC test scheduling"))
	for dom := range sys.D.Domains {
		n, prof := len(conv.Patterns), convProf
		if dom != conv.Dom {
			l := sys.NewFaultList()
			res, err := sys.ATPG(l, atpg.Options{Dom: dom, Fill: atpg.FillRandom, Seed: sys.Cfg.Seed + 70})
			if err != nil {
				return "", err
			}
			fr := &core.FlowResult{Name: "sched", Dom: dom, Patterns: res.Patterns, Faults: l}
			if prof, err = sys.ProfilePatterns(fr); err != nil {
				return "", err
			}
			n = len(res.Patterns)
		}
		peak := 0.0
		for i := range prof {
			if prof[i].ChipSCAPVdd > peak {
				peak = prof[i].ChipSCAPVdd
			}
		}
		tests = append(tests, sched.DomainTest{
			Name:    sys.D.Domains[dom].Name,
			TimeUS:  float64(n) * (maxChain/shiftMHz + 2*sys.Period/1000),
			PowerMW: peak,
		})
	}
	budget := 0.0
	for _, t := range tests {
		if t.PowerMW*1.1 > budget {
			budget = t.PowerMW * 1.1
		}
	}
	serial := sched.Serial(tests)
	opt, err := sched.Optimal(tests, budget)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "budget %.1f mW: serial %.0f µs vs optimal %.0f µs in %d sessions (%.0f%% saved)\n",
		budget, serial.MakespanUS, opt.MakespanUS, len(opt.Sessions),
		100*(1-opt.MakespanUS/serial.MakespanUS))
	for i, ses := range opt.Sessions {
		fmt.Fprintf(&b, "  session %d (%.0f µs, %.1f mW):", i+1, ses.TimeUS, ses.PowerMW)
		for _, di := range ses.Domains {
			fmt.Fprintf(&b, " %s", tests[di].Name)
		}
		fmt.Fprintln(&b)
	}
	return b.String(), nil
}
