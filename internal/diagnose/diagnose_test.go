package diagnose

import (
	"testing"

	"scap/internal/atpg"
	"scap/internal/fault"
	"scap/internal/faultsim"
	"scap/internal/netlist"
	"scap/internal/scan"
	"scap/internal/sim"
	"scap/internal/soc"
)

type rig struct {
	d    *netlist.Design
	fs   *faultsim.Sim
	l    *fault.List
	pats []atpg.Pattern
}

func newRig(t *testing.T) *rig {
	t.Helper()
	d, _, err := soc.Generate(soc.DefaultConfig(96))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scan.Insert(d, scan.Config{NumChains: 16})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(d)
	if err != nil {
		t.Fatal(err)
	}
	fs := faultsim.New(s)
	l := fault.Universe(d)
	res, err := atpg.Run(fs, l, sc, atpg.Options{Dom: 0, Fill: atpg.FillRandom, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// Fresh status list for diagnosis (the run above marked detections).
	return &rig{d: d, fs: fs, l: fault.Universe(d), pats: res.Patterns}
}

func TestDiagnoseRecoversInjectedDefect(t *testing.T) {
	r := newRig(t)
	recovered := 0
	tried := 0
	for _, defect := range []int{40, 200, 900, 1500} {
		if defect >= len(r.l.Faults) {
			continue
		}
		obs, err := Observe(r.fs, r.l, defect, r.pats, 0)
		if err != nil {
			t.Fatal(err)
		}
		fails := 0
		for _, ob := range obs {
			fails += len(ob.FailingFlops)
		}
		if fails == 0 {
			continue // defect never excited by this pattern set
		}
		tried++
		cands, err := Run(r.fs, r.l, obs, Options{Dom: 0, TopK: 5})
		if err != nil {
			t.Fatal(err)
		}
		if len(cands) == 0 {
			t.Fatalf("defect %d: no candidates", defect)
		}
		// The injected fault must rank first (ties with equivalents allowed:
		// same score).
		top := cands[0]
		found := false
		for _, c := range cands {
			if c.Score < top.Score {
				break
			}
			if c.Fault == defect {
				found = true
			}
		}
		if found {
			recovered++
		} else {
			t.Logf("defect %d (%s) not in top tie; top was %d (%s, score %.1f)",
				defect, r.l.String(defect), top.Fault, r.l.String(top.Fault), top.Score)
		}
	}
	if tried == 0 {
		t.Skip("no injected defect was excited")
	}
	if recovered < tried {
		t.Fatalf("recovered %d of %d injected defects", recovered, tried)
	}
}

func TestDiagnosePerfectScoreForExactMatch(t *testing.T) {
	r := newRig(t)
	defect, total := -1, 0
	var obs []Observation
	for cand := 100; cand < len(r.l.Faults) && total == 0; cand += 111 {
		o, err := Observe(r.fs, r.l, cand, r.pats, 0)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, ob := range o {
			n += len(ob.FailingFlops)
		}
		if n > 0 {
			defect, total, obs = cand, n, o
		}
	}
	if total == 0 {
		t.Skip("no excitable defect found")
	}
	cands, err := Run(r.fs, r.l, obs, Options{Dom: 0, TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cands {
		if c.Fault == defect {
			if c.Matched != c.Predicted || c.Matched != c.Observed {
				t.Fatalf("true defect signature not exact: %+v", c)
			}
			if c.Score != float64(total) {
				t.Fatalf("true defect score %v, want %v", c.Score, float64(total))
			}
			return
		}
	}
	t.Fatal("true defect not in top 3")
}

func TestDiagnoseOverkillMatchesNothingWell(t *testing.T) {
	// IR-drop overkill produces failures no single fault explains: feed a
	// scattered synthetic failure log and expect the best score to stay
	// far below a clean signature match.
	r := newRig(t)
	var obs []Observation
	for i := 0; i < 10 && i < len(r.pats); i++ {
		ob := Observation{Pattern: r.pats[i]}
		for f := 0; f < len(r.d.Flops); f += 37 + i {
			ob.FailingFlops = append(ob.FailingFlops, f)
		}
		obs = append(obs, ob)
	}
	cands, err := Run(r.fs, r.l, obs, Options{Dom: 0, TopK: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) > 0 {
		total := 0
		for _, ob := range obs {
			total += len(ob.FailingFlops)
		}
		if cands[0].Matched >= total/2 {
			t.Fatalf("scattered overkill matched suspiciously well: %+v of %d", cands[0], total)
		}
	}
}

func TestRunValidation(t *testing.T) {
	r := newRig(t)
	if _, err := Run(r.fs, r.l, nil, Options{Dom: 0}); err == nil {
		t.Fatal("empty observations accepted")
	}
}
