// Package cmd holds the tests every command shares: a bad flag value
// exits with status 2 before anything is built, and irdrop prints the
// same for any worker count while launching each pattern once. TestMain
// builds the commands once for all of them.
package cmd

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var commands = []string{"atpg", "diagnose", "flow", "irdrop", "repro", "scap", "socgen", "timing"}

// bin is the directory TestMain builds the commands into.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "scap-cmd")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = dir
	args := []string{"build", "-o", bin + string(os.PathSeparator)}
	for _, c := range commands {
		args = append(args, "./"+c)
	}
	code := 1
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

func TestBadFlagValuesExit2BeforeBuild(t *testing.T) {
	type run struct {
		cmd  string
		args []string
		want string // in stderr
	}
	runs := []run{
		{"atpg", []string{"-flow", "bogus"}, `invalid value "bogus" for flag -flow`},
		{"atpg", []string{"-dom", "9"}, `invalid value "9" for flag -dom`},
		{"atpg", []string{"-flow", "single", "-max", "-3"}, `invalid value "-3" for flag -max`},
		{"timing", []string{"-dom", "9"}, `invalid value "9" for flag -dom`},
		{"timing", []string{"-k", "-2"}, `invalid value "-2" for flag -k`},
		{"timing", []string{"-trace-sample", "0"}, `invalid value "0" for flag -trace-sample`},
		{"irdrop", []string{"-mc", "-4"}, `invalid value "-4" for flag -mc`},
		{"irdrop", []string{"-pattern", "-9"}, `invalid value "-9" for flag -pattern`},
		{"irdrop", []string{"-model", "bogus"}, `invalid value "bogus" for flag -model`},
		{"scap", []string{"-top", "-3"}, `invalid value "-3" for flag -top`},
		{"scap", []string{"-block", "B9"}, `invalid value "B9" for flag -block`},
		{"diagnose", []string{"-top", "0"}, `invalid value "0" for flag -top`},
		{"diagnose", []string{"-defect", "-7"}, `invalid value "-7" for flag -defect`},
		{"repro", []string{"-exp", "bogus"}, `invalid value "bogus" for flag -exp`},
		{"socgen", []string{"-scale", "-2"}, `invalid value "-2" for flag -scale`},
		{"flow", []string{"-screen", "2"}, `invalid value "2" for flag -screen`},
		{"flow", []string{"-scale", "0", "-out", "D"}, `invalid value "0" for flag -scale`},
		{"flow", []string{"-metrics-addr", ":6060"}, "flag provided but not defined: -metrics-addr"},
		{"irdrop", []string{"-snapshot-interval", "1s"}, "flag provided but not defined: -snapshot-interval"},
		// Only the built design knows how many faults there are.
		{"diagnose", []string{"-scale", "48", "-defect", "99999999"}, "-defect 99999999 out of range"},
	}
	for _, c := range commands {
		if c != "socgen" {
			runs = append(runs, run{c, []string{"-workers", "-1"}, `invalid value "-1" for flag -workers`})
		}
	}

	for _, r := range runs {
		name := r.cmd + " " + strings.Join(r.args, " ")
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			cmd := exec.Command(filepath.Join(bin, r.cmd), r.args...)
			cmd.Dir = dir
			var stdout, stderr strings.Builder
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("exit = %v, want status 2\nstderr:\n%s", err, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("printed to stdout before failing:\n%s", stdout.String())
			}
			if !strings.Contains(stderr.String(), r.want) {
				t.Errorf("stderr lacks %q:\n%s", r.want, stderr.String())
			}
			if strings.Contains(stderr.String(), "panic") {
				t.Errorf("panicked:\n%s", stderr.String())
			}
			if entries, _ := os.ReadDir(dir); len(entries) != 0 {
				t.Errorf("created %s in the working directory", entries[0].Name())
			}
		})
	}
}

// elapsed matches the three forms elapsed times take in the output:
// "in 1.2s", "(1.2s, ...)" and "(390ms total)".
var elapsed = regexp.MustCompile(`in [0-9a-zµ.]+m?s|\([0-9.]+[mµ]?s[,) ]`)

// TestIRDropSameForAnyWorkersOneLaunchPerPattern runs the batched
// IR-drop (groups of four patterns), Monte-Carlo (23 trials leave a
// partial last group of four) and dynamic sections at one and at three
// workers. The analysis output must match once elapsed times are
// stripped, and the run report must count one launch per pattern plus
// the two of the -dynamic pattern's delay comparison, whose nominal
// launch also yields the printed IR-drop map.
func TestIRDropSameForAnyWorkersOneLaunchPerPattern(t *testing.T) {
	solved := regexp.MustCompile(`(\d+) patterns solved`)
	var outs []string
	for _, workers := range []string{"1", "3"} {
		dir := t.TempDir()
		cmd := exec.Command(filepath.Join(bin, "irdrop"), "-scale", "48", "-all", "-dynamic",
			"-mc", "23", "-workers", workers, "-report", "r.json")
		cmd.Dir = dir
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("workers=%s: %v", workers, err)
		}
		// The analysis ends where the report's own output starts.
		analysis, _, ok := strings.Cut(string(out), "  wrote r.json")
		if !ok {
			t.Fatalf("workers=%s: no report written:\n%s", workers, out)
		}
		outs = append(outs, elapsed.ReplaceAllString(analysis, ""))

		m := solved.FindStringSubmatch(analysis)
		if m == nil {
			t.Fatalf("workers=%s: no batched pattern count in:\n%s", workers, analysis)
		}
		patterns, _ := strconv.Atoi(m[1])
		raw, err := os.ReadFile(filepath.Join(dir, "r.json"))
		if err != nil {
			t.Fatal(err)
		}
		var rep struct {
			Counters map[string]int64 `json:"counters"`
		}
		if err := json.Unmarshal(raw, &rep); err != nil {
			t.Fatal(err)
		}
		if got, want := rep.Counters["sim.launches"], int64(patterns+2); got != want {
			t.Errorf("workers=%s: sim.launches = %d, want %d (%d patterns + 2)", workers, got, want, patterns)
		}
	}
	if outs[0] != outs[1] {
		t.Errorf("output differs between 1 and 3 workers:\n--- 1 worker\n%s\n--- 3 workers\n%s", outs[0], outs[1])
	}
}
