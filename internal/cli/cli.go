// Package cli is the front door the analysis commands under cmd/ share:
// it registers the flags common to the commands that build a
// core.System (-scale, -workers and the observability flags), checks
// every flag value, builds the system and exits.
//
// Values are checked inside flag.Parse. Int, Float and Choice register
// flags through flag.Func, so an out-of-range number or an unknown
// choice makes flag.Parse print the error and the usage and exit with
// status 2 before the command has built anything. A run that fails
// later exits with status 1 through Check.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"

	"scap/internal/core"
	"scap/internal/obs"
)

// stdout receives the exit summary; tests swap it.
var stdout io.Writer = os.Stdout

// Command is one command's shared flags and the system it built.
type Command struct {
	name    string
	scale   *int
	workers *int
	report  *string
	trace   *string
	sys     *core.System
}

// Plain registers only -scale, for a command that builds no core.System:
// Build and Finish need New.
func Plain(name string, defaultScale int) *Command {
	return &Command{
		name:  name,
		scale: Int("scale", defaultScale, 1, math.MaxInt, "design scale divisor (1 = paper size)"),
	}
}

// New registers -scale with the command's default, -workers with its
// usage, and the observability flags -report and -trace.
func New(name string, defaultScale int, workersUsage string) *Command {
	c := Plain(name, defaultScale)
	c.workers = Int("workers", 0, 0, math.MaxInt, workersUsage)
	c.report = flag.String("report", "", "write a versioned JSON run report to `file`")
	c.trace = flag.String("trace", "", "write the run's stage tree to `file` as Chrome trace-event JSON (load in Perfetto)")
	return c
}

// Scale returns the parsed -scale.
func (c *Command) Scale() int { return *c.scale }

// Build enables observability as the flags ask, then builds the system
// at -scale with -workers.
func (c *Command) Build() *core.System {
	if *c.report != "" || *c.trace != "" {
		obs.Enable()
	}
	cfg := core.DefaultConfig(*c.scale)
	cfg.Workers = *c.workers
	sys, err := core.Build(cfg)
	c.Check(err)
	c.sys = sys
	return sys
}

// Finish writes the run report and the trace the flags ask for and
// prints the stage summary, with the named counters. It prints nothing
// while observability is off.
func (c *Command) Finish(counters ...string) {
	if !obs.On() {
		return
	}
	r := obs.BuildReport(c.name, c.sys.Cfg)
	if *c.report != "" {
		c.Check(r.WriteFile(*c.report))
		fmt.Fprintf(stdout, "  wrote %s\n", *c.report)
	}
	if *c.trace != "" {
		c.Check(r.WriteTrace(*c.trace))
		fmt.Fprintf(stdout, "  wrote %s\n", *c.trace)
	}
	fmt.Fprint(stdout, "\n", r.SummaryTable(counters...))
}

// Check prints "name: err" and exits 1 when err is non-nil.
func (c *Command) Check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", c.name, err)
		os.Exit(1)
	}
}

// Reject prints "name: err" and exits 2: for a flag value that only the
// built design can check, such as an index past the end of a list.
func (c *Command) Reject(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", c.name, err)
	os.Exit(2)
}

// Int registers an integer flag that flag.Parse sets only to a value in
// [lo, hi]; hi = math.MaxInt leaves it unbounded above.
func Int(name string, def, lo, hi int, usage string) *int {
	want := fmt.Sprintf("in [%d, %d]", lo, hi)
	if hi == math.MaxInt {
		want = fmt.Sprintf(">= %d", lo)
	}
	return ranged(name, def, lo, hi, usage, want, func(s string) (int, error) {
		v, err := strconv.ParseInt(s, 0, strconv.IntSize)
		return int(v), err
	})
}

// Float registers a float flag that flag.Parse sets only to a value in
// [lo, hi].
func Float(name string, def, lo, hi float64, usage string) *float64 {
	return ranged(name, def, lo, hi, usage, fmt.Sprintf("in [%g, %g]", lo, hi), func(s string) (float64, error) {
		return strconv.ParseFloat(s, 64)
	})
}

func ranged[T int | float64](name string, def, lo, hi T, usage, want string, parse func(string) (T, error)) *T {
	p := &def
	flag.Func(name, fmt.Sprintf("%s (default %v)", usage, def), func(s string) error {
		v, err := parse(s)
		if err != nil {
			return errors.Unwrap(err) // the *strconv.NumError's reason
		}
		if !(v >= lo && v <= hi) { // also rejects NaN
			return fmt.Errorf("must be %s", want)
		}
		*p = v
		return nil
	})
	return p
}

// Choice registers an enumerated flag: flag.Parse accepts only a key of
// choices, and the flag reads as the value that key maps to. def must be
// a key.
func Choice[T any](name, def, usage string, choices map[string]T) *T {
	v, ok := choices[def]
	if !ok {
		panic(fmt.Sprintf("cli: -%s default %q is not a choice", name, def))
	}
	p := &v
	flag.Func(name, fmt.Sprintf("%s (default %q)", usage, def), func(s string) error {
		v, ok := choices[s]
		if !ok {
			keys := make([]string, 0, len(choices))
			for k := range choices {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			return fmt.Errorf("must be one of %q", keys)
		}
		*p = v
		return nil
	})
	return p
}
