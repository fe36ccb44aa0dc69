package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runMain runs the command in a child process of the test binary, with
// the given arguments, through the named test's EXPERIMENTS_MAIN hook.
func runMain(test, args string) ([]byte, error) {
	cmd := exec.Command(os.Args[0], "-test.run=^"+test+"$")
	cmd.Env = append(os.Environ(), "EXPERIMENTS_MAIN=1", "EXPERIMENTS_ARGS="+args)
	return cmd.CombinedOutput()
}

// mainHook runs main in the child process runMain started, and reports
// whether it did.
func mainHook() bool {
	if os.Getenv("EXPERIMENTS_MAIN") != "1" {
		return false
	}
	os.Args = append([]string{"experiments"}, strings.Fields(os.Getenv("EXPERIMENTS_ARGS"))...)
	main()
	return true
}

// TestBadTraceFlagsExitTwo: a bad -trace-format or an uncreatable -trace
// file exits with status 2 and one line before any table runs, with the
// flags before or after the subcommand.
func TestBadTraceFlagsExitTwo(t *testing.T) {
	if mainHook() {
		return
	}
	dir := t.TempDir()
	good, bad := filepath.Join(dir, "t.json"), filepath.Join(dir, "no-such-dir", "t.json")
	for _, args := range []string{
		"-small -trace " + good + " -trace-format nope table1",
		"-small -trace " + bad + " table1",
		"table1 -small -trace " + bad,
	} {
		out, err := runMain("TestBadTraceFlagsExitTwo", args)
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 {
			t.Errorf("%s: exit %v, want status 2; output:\n%s", args, err, out)
			continue
		}
		if msg := strings.TrimSpace(string(out)); !strings.HasPrefix(msg, "experiments: -trace") || strings.Contains(msg, "\n") {
			t.Errorf("%s: output %q, want one experiments: -trace line", args, msg)
		}
	}
	if _, err := os.Stat(good); !os.IsNotExist(err) {
		t.Errorf("a rejected -trace-format left the trace file behind (stat: %v)", err)
	}
}

// TestFailedRunWritesProfile: a sweep that fails after the profiles
// started still stops them, so its -cpuprofile file is a profile, and
// leaves no -trace file.
func TestFailedRunWritesProfile(t *testing.T) {
	if mainHook() {
		return
	}
	dir := t.TempDir()
	prof, tr := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "t.json")
	out, err := runMain("TestFailedRunWritesProfile", "nosuch -cpuprofile "+prof+" -trace "+tr)
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("exit %v, want status 1; output:\n%s", err, out)
	}
	fi, err := os.Stat(prof)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 {
		t.Fatal("the failed sweep's CPU profile is empty")
	}
	if _, err := os.Stat(tr); !os.IsNotExist(err) {
		t.Fatalf("failed sweep left its trace file (stat: %v)", err)
	}
}
