// Package cmd holds the test every command shares: a bad flag value
// exits with status 2 before anything is built. It builds the commands
// once and runs each bad value against the binaries.
package cmd

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var commands = []string{"atpg", "diagnose", "flow", "irdrop", "repro", "scap", "socgen", "timing"}

func TestBadFlagValuesExit2BeforeBuild(t *testing.T) {
	bin := t.TempDir()
	args := []string{"build", "-o", bin + string(os.PathSeparator)}
	for _, c := range commands {
		args = append(args, "./"+c)
	}
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

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
