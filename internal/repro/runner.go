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

// experiments is the one table of experiment ids, in report order (the
// paper's tables and figures, then the extensions), and the method each
// runs.
var experiments = []struct {
	id  string
	run func(*Runner) (string, error)
}{
	{"table1", (*Runner).Table1},
	{"table2", (*Runner).Table2},
	{"table3", (*Runner).Table3},
	{"table4", (*Runner).Table4},
	{"fig1", (*Runner).Fig1},
	{"fig2", (*Runner).Fig2},
	{"fig3", (*Runner).Fig3},
	{"fig4", (*Runner).Fig4},
	{"fig5", (*Runner).Fig5},
	{"fig6", (*Runner).Fig6},
	{"fig7", (*Runner).Fig7},
	{"ext-functional", (*Runner).ExtFunctional},
	{"ext-ftas", (*Runner).ExtFTAS},
	{"ext-quality", (*Runner).ExtQuality},
	{"ext-sched", (*Runner).ExtSched},
}

// Experiments lists every experiment id in report order.
var Experiments = func() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}()

// Run dispatches one experiment by id.
func (r *Runner) Run(id string) (string, error) {
	for _, e := range experiments {
		if e.id == id {
			return e.run(r)
		}
	}
	return "", fmt.Errorf("repro: unknown experiment %q (have %s)",
		id, strings.Join(Experiments, ", "))
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
