// Package repro regenerates every table and figure of the paper's
// evaluation on the synthetic SOC. Each experiment returns a plain-text
// report juxtaposing the paper's published values with the measured ones,
// so the shape criteria of DESIGN.md can be checked by eye or by the
// benchmark harness. All experiments share one built System and cache the
// expensive artifacts (flows, per-pattern power profiles).
package repro

import (
	"fmt"
	"strings"
	"sync"

	"scap/internal/core"
	"scap/internal/soc"
)

// Runner owns the built system and experiment caches.
type Runner struct {
	Sys  *core.System
	Stat *core.StatAnalysis

	mu       sync.Mutex
	conv     *core.FlowResult
	nw       *core.FlowResult
	convProf []core.PatternProfile
	newProf  []core.PatternProfile
}

// New builds the system at the given scale divisor and runs the statistical
// analysis. Scale 8 is the default experiment scale; unit-style runs use
// larger divisors. The per-pattern analysis layers use every core; build
// the system yourself and call NewSystem to pin the pool size.
func New(scale int) (*Runner, error) {
	sys, err := core.Build(core.DefaultConfig(scale))
	if err != nil {
		return nil, err
	}
	return NewSystem(sys)
}

// NewSystem runs the statistical analysis on an already built system.
// Reports are identical for any sys.Cfg.Workers — the pool only
// parallelizes index-addressed work.
func NewSystem(sys *core.System) (*Runner, error) {
	stat, err := sys.Statistical()
	if err != nil {
		return nil, err
	}
	return &Runner{Sys: sys, Stat: stat}, nil
}

// Conventional returns the cached conventional flow and its power profile.
func (r *Runner) Conventional() (*core.FlowResult, []core.PatternProfile, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.conv == nil {
		fr, err := r.Sys.ConventionalFlow(0)
		if err != nil {
			return nil, nil, err
		}
		prof, err := r.Sys.ProfilePatterns(fr)
		if err != nil {
			return nil, nil, err
		}
		r.conv, r.convProf = fr, prof
	}
	return r.conv, r.convProf, nil
}

// NewProcedure returns the cached noise-tolerant flow and its profile.
func (r *Runner) NewProcedure() (*core.FlowResult, []core.PatternProfile, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.nw == nil {
		fr, err := r.Sys.NewProcedureFlow(0)
		if err != nil {
			return nil, nil, err
		}
		prof, err := r.Sys.ProfilePatterns(fr)
		if err != nil {
			return nil, nil, err
		}
		r.nw, r.newProf = fr, prof
	}
	return r.nw, r.newProf, nil
}

// Experiments lists every experiment id in paper order.
var Experiments = []string{
	"table1", "table2", "table3", "table4",
	"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
}

// Run dispatches one experiment by id.
func (r *Runner) Run(id string) (string, error) {
	switch id {
	case "table1":
		return r.Table1()
	case "table2":
		return r.Table2()
	case "table3":
		return r.Table3()
	case "table4":
		return r.Table4()
	case "fig1":
		return r.Fig1()
	case "fig2":
		return r.Fig2()
	case "fig3":
		return r.Fig3()
	case "fig4":
		return r.Fig4()
	case "fig5":
		return r.Fig5()
	case "fig6":
		return r.Fig6()
	case "fig7":
		return r.Fig7()
	case "ext-functional":
		return r.ExtFunctional()
	case "ext-ftas":
		return r.ExtFTAS()
	case "ext-quality":
		return r.ExtQuality()
	case "ext-sched":
		return r.ExtSched()
	default:
		return "", fmt.Errorf("repro: unknown experiment %q (have %s)",
			id, strings.Join(Experiments, ", "))
	}
}

// All runs every experiment and concatenates the reports.
func (r *Runner) All() (string, error) {
	var b strings.Builder
	for _, id := range Experiments {
		s, err := r.Run(id)
		if err != nil {
			return "", fmt.Errorf("%s: %w", id, err)
		}
		b.WriteString(s)
		b.WriteString("\n")
	}
	return b.String(), nil
}

// header renders an experiment banner.
func header(title string) string {
	line := strings.Repeat("=", len(title))
	return fmt.Sprintf("%s\n%s\n", title, line)
}

// hotBlockName names the statistically hottest block (B5 by construction).
func (r *Runner) hotBlockName() string {
	return soc.BlockName(r.Stat.HotBlock)
}
