package sched

import (
	"fmt"
	"math"
)

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
