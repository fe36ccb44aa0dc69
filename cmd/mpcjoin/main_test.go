package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"coverpack"
)

func TestCheckSizes(t *testing.T) {
	line3 := coverpack.MustParseQuery("line3", "R1(A,B) R2(B,C) R3(C,D)")
	star := coverpack.MustParseQuery("mixed", "R1(A) R2(A,B,C)")
	for _, c := range []struct {
		q       *coverpack.Query
		kind    string
		n       int
		dom     int64
		wantErr string // "" for none
	}{
		{line3, "uniform", 100, 500, ""},
		{line3, "uniform", 0, 500, "-n 0"},
		{line3, "uniform", -5, 500, "-n -5"},
		{line3, "matching", -5, 0, "-n -5"},
		{line3, "uniform", 10000, -3, "-dom -3"},
		{line3, "matching", 10, -3, "-dom -3"},
		{line3, "uniform", 100, 10, ""},
		{line3, "uniform", 101, 10, "relation R1 holds at most 100"},
		{line3, "zipf", 101, 10, "relation R1 holds at most 100"},
		{line3, "matching", 101, 10, ""}, // matchings ignore -dom
		{star, "uniform", 11, 10, "relation R1 holds at most 10"},
		{line3, "uniform", 1 << 62, 1 << 40, ""}, // dom² overflows int64
	} {
		err := checkSizes(c.q, c.kind, c.n, c.dom)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s %s n=%d dom=%d: %v", c.q.Name(), c.kind, c.n, c.dom, err)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("%s %s n=%d dom=%d: error %v, want one containing %q", c.q.Name(), c.kind, c.n, c.dom, err, c.wantErr)
		}
	}
}

// runMain runs the command in a child process of the test binary, with
// the given arguments, through the named test's MPCJOIN_MAIN hook.
func runMain(test, args string) ([]byte, error) {
	cmd := exec.Command(os.Args[0], "-test.run=^"+test+"$")
	cmd.Env = append(os.Environ(), "MPCJOIN_MAIN=1", "MPCJOIN_ARGS="+args)
	return cmd.CombinedOutput()
}

// mainHook runs main in the child process runMain started, and reports
// whether it did.
func mainHook() bool {
	if os.Getenv("MPCJOIN_MAIN") != "1" {
		return false
	}
	os.Args = append([]string{"mpcjoin"}, strings.Fields(os.Getenv("MPCJOIN_ARGS"))...)
	main()
	return true
}

// TestBadSizesExitTwo runs the command on sizes, repetition counts and
// trace flags it must reject: each exits with status 2 and a one-line
// message before the run, and none panics.
func TestBadSizesExitTwo(t *testing.T) {
	if mainHook() {
		return
	}
	dir := t.TempDir()
	for _, args := range []string{
		"-catalog line3 -dom -3",
		"-catalog line3 -n -5",
		"-catalog line3 -n 100 -dom 3",
		"-catalog line3 -n 10 -parallel 0",
		"-catalog line3 -n 10 -parallel -2",
		"-catalog line3 -n 10 -trace " + filepath.Join(dir, "t.json") + " -trace-format nope",
		"-catalog line3 -n 10 -trace " + filepath.Join(dir, "no-such-dir", "t.json"),
	} {
		out, err := runMain("TestBadSizesExitTwo", args)
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 {
			t.Errorf("%s: exit %v, want status 2; output:\n%s", args, err, out)
			continue
		}
		if msg := strings.TrimSpace(string(out)); !strings.HasPrefix(msg, "mpcjoin: -") || strings.Contains(msg, "\n") {
			t.Errorf("%s: output %q, want one mpcjoin: line", args, msg)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "t.json")); !os.IsNotExist(err) {
		t.Errorf("a rejected -trace-format left the trace file behind (stat: %v)", err)
	}
}

// TestFailedRunWritesProfile: a run that fails after the profiles
// started still stops them, so its -cpuprofile file is a profile, and
// leaves no -trace file.
func TestFailedRunWritesProfile(t *testing.T) {
	if mainHook() {
		return
	}
	dir := t.TempDir()
	prof, tr := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "t.json")
	// The acyclic algorithm rejects the cyclic triangle query.
	out, err := runMain("TestFailedRunWritesProfile", "-catalog triangle -alg acyclic-optimal -n 200 -cpuprofile "+prof+" -trace "+tr)
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("exit %v, want status 1; output:\n%s", err, out)
	}
	fi, err := os.Stat(prof)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 {
		t.Fatal("the failed run's CPU profile is empty")
	}
	if _, err := os.Stat(tr); !os.IsNotExist(err) {
		t.Fatalf("failed run left its trace file (stat: %v)", err)
	}
}
