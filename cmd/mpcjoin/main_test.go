package main

import (
	"os"
	"os/exec"
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

// TestBadSizesExitTwo runs the command on sizes it must reject: each
// exits with status 2 and a one-line message, and none panics.
func TestBadSizesExitTwo(t *testing.T) {
	if os.Getenv("MPCJOIN_MAIN") == "1" {
		os.Args = append([]string{"mpcjoin"}, strings.Fields(os.Getenv("MPCJOIN_ARGS"))...)
		main()
		return
	}
	for _, args := range []string{
		"-catalog line3 -dom -3",
		"-catalog line3 -n -5",
		"-catalog line3 -n 100 -dom 3",
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestBadSizesExitTwo$")
		cmd.Env = append(os.Environ(), "MPCJOIN_MAIN=1", "MPCJOIN_ARGS="+args)
		out, err := cmd.CombinedOutput()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 {
			t.Errorf("%s: exit %v, want status 2; output:\n%s", args, err, out)
			continue
		}
		if msg := strings.TrimSpace(string(out)); !strings.HasPrefix(msg, "mpcjoin: -") || strings.Contains(msg, "\n") {
			t.Errorf("%s: output %q, want one mpcjoin: line", args, msg)
		}
	}
}
