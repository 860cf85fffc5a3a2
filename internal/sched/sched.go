// Package sched implements power-constrained SOC test scheduling — the
// problem the paper's introduction motivates (its refs [5], [6]): clock
// domains can be tested in parallel to cut test time, but the summed test
// power of concurrently active domains must stay below the chip's
// functional power threshold, or the shared power grid sags exactly the
// way the paper's per-pattern analysis quantifies.
//
// Three schedulers are provided: fully serial (the safe baseline), a
// greedy first-fit-decreasing heuristic, and an exact partition-DP optimum
// (practical for the ≤16 domains real SOCs have).
package sched

import (
	"fmt"
	"math"
	"sort"
)

// DomainTest describes one clock domain's test session requirements.
type DomainTest struct {
	Name    string
	TimeUS  float64 // total tester time to apply the domain's pattern set
	PowerMW float64 // peak concurrent power demand while testing
}

// Session is one parallel group: all its domains are tested concurrently;
// the session lasts as long as its slowest member.
type Session struct {
	Domains []int // indexes into the input slice
	TimeUS  float64
	PowerMW float64
}

// Schedule is an ordered set of sessions.
type Schedule struct {
	Sessions   []Session
	MakespanUS float64
}

// Serial returns the one-domain-at-a-time schedule (always feasible).
func Serial(tests []DomainTest) *Schedule {
	s := &Schedule{}
	for i, t := range tests {
		s.Sessions = append(s.Sessions, Session{
			Domains: []int{i}, TimeUS: t.TimeUS, PowerMW: t.PowerMW,
		})
		s.MakespanUS += t.TimeUS
	}
	return s
}

// validate checks inputs against the budget.
func validate(tests []DomainTest, budgetMW float64) error {
	if budgetMW <= 0 {
		return fmt.Errorf("sched: power budget must be positive")
	}
	for _, t := range tests {
		if t.TimeUS < 0 || t.PowerMW < 0 {
			return fmt.Errorf("sched: domain %s has negative time or power", t.Name)
		}
		if t.PowerMW > budgetMW {
			return fmt.Errorf("sched: domain %s alone (%.1f mW) exceeds the %.1f mW budget",
				t.Name, t.PowerMW, budgetMW)
		}
	}
	return nil
}

// Greedy packs domains longest-first into sessions, adding a domain to the
// current session while the power budget allows.
func Greedy(tests []DomainTest, budgetMW float64) (*Schedule, error) {
	if err := validate(tests, budgetMW); err != nil {
		return nil, err
	}
	order := make([]int, len(tests))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return tests[order[a]].TimeUS > tests[order[b]].TimeUS
	})
	used := make([]bool, len(tests))
	s := &Schedule{}
	for _, seed := range order {
		if used[seed] {
			continue
		}
		ses := Session{Domains: []int{seed},
			TimeUS: tests[seed].TimeUS, PowerMW: tests[seed].PowerMW}
		used[seed] = true
		for _, cand := range order {
			if used[cand] || ses.PowerMW+tests[cand].PowerMW > budgetMW {
				continue
			}
			used[cand] = true
			ses.Domains = append(ses.Domains, cand)
			ses.PowerMW += tests[cand].PowerMW
			if tests[cand].TimeUS > ses.TimeUS {
				ses.TimeUS = tests[cand].TimeUS
			}
		}
		s.Sessions = append(s.Sessions, ses)
		s.MakespanUS += ses.TimeUS
	}
	return s, nil
}

// Optimal computes the minimum-makespan partition into power-feasible
// sessions by dynamic programming over domain subsets (O(3^n); n ≤ 16).
func Optimal(tests []DomainTest, budgetMW float64) (*Schedule, error) {
	if err := validate(tests, budgetMW); err != nil {
		return nil, err
	}
	n := len(tests)
	if n > 16 {
		return nil, fmt.Errorf("sched: Optimal supports at most 16 domains, got %d", n)
	}
	full := (1 << n) - 1

	// Feasibility and duration of each subset as one session.
	dur := make([]float64, full+1)
	feasible := make([]bool, full+1)
	for m := 1; m <= full; m++ {
		var p, t float64
		for i := 0; i < n; i++ {
			if m&(1<<i) != 0 {
				p += tests[i].PowerMW
				t = math.Max(t, tests[i].TimeUS)
			}
		}
		dur[m] = t
		feasible[m] = p <= budgetMW
	}

	best := make([]float64, full+1)
	choice := make([]int, full+1)
	for m := 1; m <= full; m++ {
		best[m] = math.Inf(1)
		// Fix the lowest set bit into the chosen session to avoid counting
		// each partition n! times.
		low := m & -m
		rest := m ^ low
		for sub := rest; ; sub = (sub - 1) & rest {
			ses := sub | low
			if feasible[ses] {
				if c := dur[ses] + best[m^ses]; c < best[m] {
					best[m], choice[m] = c, ses
				}
			}
			if sub == 0 {
				break
			}
		}
		if math.IsInf(best[m], 1) {
			return nil, fmt.Errorf("sched: no feasible session covers subset %b", m)
		}
	}

	s := &Schedule{MakespanUS: best[full]}
	for m := full; m != 0; {
		ses := choice[m]
		out := Session{TimeUS: dur[ses]}
		for i := 0; i < n; i++ {
			if ses&(1<<i) != 0 {
				out.Domains = append(out.Domains, i)
				out.PowerMW += tests[i].PowerMW
			}
		}
		s.Sessions = append(s.Sessions, out)
		m ^= ses
	}
	return s, nil
}

// Check verifies a schedule covers every domain exactly once within the
// budget and that the makespan is consistent.
func Check(s *Schedule, tests []DomainTest, budgetMW float64) error {
	seen := make([]bool, len(tests))
	total := 0.0
	for si, ses := range s.Sessions {
		var p, t float64
		for _, d := range ses.Domains {
			if d < 0 || d >= len(tests) {
				return fmt.Errorf("sched: session %d references domain %d", si, d)
			}
			if seen[d] {
				return fmt.Errorf("sched: domain %d scheduled twice", d)
			}
			seen[d] = true
			p += tests[d].PowerMW
			t = math.Max(t, tests[d].TimeUS)
		}
		if p > budgetMW+1e-9 {
			return fmt.Errorf("sched: session %d power %.1f exceeds budget %.1f", si, p, budgetMW)
		}
		if math.Abs(t-ses.TimeUS) > 1e-9 || math.Abs(p-ses.PowerMW) > 1e-9 {
			return fmt.Errorf("sched: session %d bookkeeping inconsistent", si)
		}
		total += ses.TimeUS
	}
	for d, ok := range seen {
		if !ok {
			return fmt.Errorf("sched: domain %d unscheduled", d)
		}
	}
	if math.Abs(total-s.MakespanUS) > 1e-9 {
		return fmt.Errorf("sched: makespan %.3f != session sum %.3f", s.MakespanUS, total)
	}
	return nil
}
