package cli

import (
	"flag"
	"io"
	"math"
	"strings"
	"testing"

	"scap/internal/obs"
)

// useFlagSet points the helpers at a fresh ContinueOnError flag set, so
// a bad value comes back from Parse as an error instead of an exit.
func useFlagSet(t *testing.T) *flag.FlagSet {
	t.Helper()
	saved := flag.CommandLine
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	flag.CommandLine = fs
	t.Cleanup(func() { flag.CommandLine = saved })
	return fs
}

func TestIntRange(t *testing.T) {
	for _, tc := range []struct {
		arg  string
		want int
		ok   bool
	}{
		{"-1", -1, true}, {"5", 5, true}, {"0x3", 3, true},
		{"-2", 0, false}, {"6", 0, false}, {"x", 0, false},
	} {
		fs := useFlagSet(t)
		p := Int("dom", 2, -1, 5, "")
		if *p != 2 {
			t.Fatalf("default = %d, want 2", *p)
		}
		err := fs.Parse([]string{"-dom", tc.arg})
		if tc.ok && (err != nil || *p != tc.want) {
			t.Errorf("-dom %s: got %d, %v; want %d", tc.arg, *p, err, tc.want)
		}
		if !tc.ok && err == nil {
			t.Errorf("-dom %s accepted, want an error", tc.arg)
		}
	}
}

func TestIntUnboundedAbove(t *testing.T) {
	fs := useFlagSet(t)
	p := Int("workers", 0, 0, math.MaxInt, "")
	if err := fs.Parse([]string{"-workers", "-1"}); err == nil || !strings.Contains(err.Error(), "must be >= 0") {
		t.Fatalf("-workers -1: err = %v, want \"must be >= 0\"", err)
	}
	fs = useFlagSet(t)
	p = Int("workers", 0, 0, math.MaxInt, "")
	if err := fs.Parse([]string{"-workers", "1000000"}); err != nil || *p != 1000000 {
		t.Fatalf("-workers 1000000: got %d, %v", *p, err)
	}
}

func TestFloatRange(t *testing.T) {
	for _, tc := range []struct {
		arg string
		ok  bool
	}{
		{"0", true}, {"1", true}, {"0.25", true},
		{"-0.001", false}, {"1.001", false}, {"NaN", false}, {"x", false},
	} {
		fs := useFlagSet(t)
		p := Float("screen", 0, 0, 1, "")
		err := fs.Parse([]string{"-screen", tc.arg})
		if tc.ok && err != nil {
			t.Errorf("-screen %s: %v", tc.arg, err)
		}
		if !tc.ok && (err == nil || *p != 0) {
			t.Errorf("-screen %s: got %g, %v; want an error and the default", tc.arg, *p, err)
		}
	}
}

func TestChoice(t *testing.T) {
	choices := map[string]int{"CAP": 1, "SCAP": 2}
	fs := useFlagSet(t)
	p := Choice("model", "SCAP", "", choices)
	if *p != 2 {
		t.Fatalf("default reads %d, want 2", *p)
	}
	if err := fs.Parse([]string{"-model", "CAP"}); err != nil || *p != 1 {
		t.Fatalf("-model CAP: got %d, %v; want 1", *p, err)
	}
	fs = useFlagSet(t)
	p = Choice("model", "SCAP", "", choices)
	err := fs.Parse([]string{"-model", "cap"})
	if err == nil || !strings.Contains(err.Error(), `["CAP" "SCAP"]`) {
		t.Fatalf("-model cap: err = %v, want the list of choices", err)
	}
	if *p != 2 {
		t.Errorf("rejected value changed the flag to %d", *p)
	}
}

func TestNewRegistersSharedFlags(t *testing.T) {
	fs := useFlagSet(t)
	c := New("test", 8, "workers")
	if c.Scale() != 8 {
		t.Fatalf("default scale = %d, want 8", c.Scale())
	}
	for _, args := range [][]string{
		{"-scale", "0"}, {"-workers", "-1"}, {"-trace-events", "0"}, {"-trace-sample", "0"},
		{"-metrics-addr", ":6060"}, {"-snapshot-interval", "1s"},
	} {
		if err := fs.Parse(args); err == nil {
			t.Errorf("%v accepted, want an error", args)
		}
	}
	if err := fs.Parse([]string{"-scale", "48", "-workers", "0", "-report", "r.json", "-trace", "t.json"}); err != nil {
		t.Fatal(err)
	}
	if c.Scale() != 48 || *c.workers != 0 || *c.report != "r.json" || *c.trace != "t.json" {
		t.Errorf("parsed scale %d, workers %d, report %q, trace %q", c.Scale(), *c.workers, *c.report, *c.trace)
	}
}

func TestFinishPrintsNothingWhileObservabilityIsOff(t *testing.T) {
	useFlagSet(t)
	obs.Disable()
	var b strings.Builder
	saved := stdout
	stdout = &b
	t.Cleanup(func() { stdout = saved })
	New("test", 8, "").Finish()
	if b.Len() != 0 {
		t.Errorf("Finish printed %q with observability off", b.String())
	}
}
