package bench

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"coverpack"
)

// compile is the part of an op that precedes ExecuteOpts: the cold
// cases drop the compile caches, the catalog cases compile the query
// and run the algorithm the plan recommends.
func (c *Case) compile() (coverpack.Algorithm, error) {
	if c.Cold {
		coverpack.ResetPlanCompileCache()
		coverpack.ResetAnalyzeCache()
	}
	if !c.Compile {
		return c.Alg, nil
	}
	cp, err := coverpack.CompileQuery(c.In.Query)
	if err != nil {
		return 0, err
	}
	return cp.Algorithm, nil
}

// Exec runs the case's op the way a user does: through ExecuteOpts,
// with the case's own options after mod (which may be nil) has
// adjusted them.
func (c *Case) Exec(mod func(*coverpack.ExecOptions)) (*coverpack.Report, error) {
	alg, err := c.compile()
	if err != nil {
		return nil, err
	}
	eo := c.Opts
	if mod != nil {
		mod(&eo)
	}
	return coverpack.ExecuteOpts(alg, c.In, c.P, eo)
}

// Session is one built workload plus the bench's correctness ledger.
type Session struct {
	Cases []Case
	// Tuples is the input size of a pass.
	Tuples int
	// first holds each case's Report from the warm-up pass; every later
	// op must reproduce it.
	first []*coverpack.Report
	// Attempted and Failed count ops; Failures keeps the first few
	// reasons.
	Attempted, Failed int
	Failures          []string
}

// SetupTimes is what set-up cost.
type SetupTimes struct {
	// Total is generation + oracle counts + the warm-up pass.
	Total time.Duration
	// Gen is the generators alone.
	Gen time.Duration
}

// Setup builds the workload from a cold start (empty compile caches),
// computes the expected outputs and runs the warm-up pass.
func Setup(w Workload, spillDir string, seed uint64, scale int) (*Session, SetupTimes, error) {
	runtime.GC()
	start := time.Now()
	coverpack.ResetPlanCompileCache()
	coverpack.ResetAnalyzeCache()
	cases, gen, err := w.Build(spillDir, seed, scale)
	if err != nil {
		return nil, SetupTimes{}, err
	}
	s := &Session{Cases: cases, Tuples: Tuples(cases), first: make([]*coverpack.Report, len(cases))}
	s.Pass(execPlain, nil)
	return s, SetupTimes{Total: time.Since(start), Gen: gen}, nil
}

func execPlain(c *Case) (*coverpack.Report, error) { return c.Exec(nil) }

// Pass runs one op per case in order with the given runner, checks
// every outcome, and returns the pass's wall time: the sum of the op
// times, which are also stored in opWall when it is non-nil.
func (s *Session) Pass(run func(*Case) (*coverpack.Report, error), opWall []time.Duration) time.Duration {
	var total time.Duration
	for i := range s.Cases {
		c := &s.Cases[i]
		t0 := time.Now()
		rep, err := run(c)
		d := time.Since(t0)
		total += d
		if opWall != nil {
			opWall[i] = d
		}
		s.check(i, rep, err)
	}
	return total
}

// check books one op: an error, a wrong output size, a segment file
// left in the spill directory or a Report that differs from the
// warm-up pass's makes it a failed op.
func (s *Session) check(i int, rep *coverpack.Report, err error) {
	c := &s.Cases[i]
	s.Attempted++
	switch {
	case err != nil:
		s.fail(c, "%v", err)
	case rep.Emitted != c.Expect:
		s.fail(c, "emitted %d, oracle says %d", rep.Emitted, c.Expect)
	case c.Spilled && spillLeak(c.Opts.SpillDir) != "":
		s.fail(c, "%s", spillLeak(c.Opts.SpillDir))
	case s.first[i] == nil:
		s.first[i] = rep
	default:
		// SeqFallback is execution metadata (a parallel engine was
		// asked for on one core), not part of the result.
		got := *rep
		got.Stats.SeqFallback = s.first[i].Stats.SeqFallback
		if got != *s.first[i] {
			s.fail(c, "report %+v differs from first pass's %+v", got, *s.first[i])
		}
	}
}

// spillLeak says what a spilled op left behind in the bench's spill
// directory; "" when it is empty, as it must be.
func spillLeak(dir string) string {
	if ents, err := os.ReadDir(dir); err != nil || len(ents) > 0 {
		return fmt.Sprintf("spill dir %s not empty after the op (%d entries, err %v)", dir, len(ents), err)
	}
	return ""
}

func (s *Session) fail(c *Case, format string, args ...any) {
	s.Failed++
	if len(s.Failures) < 8 {
		s.Failures = append(s.Failures, c.Name+": "+fmt.Sprintf(format, args...))
	}
}

// LoadRatio is the geometric mean over cases of measured max load over
// the paper's bound for the case's algorithm; Rounds is the sum of
// rounds over the pass. Both come from the warm-up Reports, which
// every later pass is required to reproduce.
func (s *Session) LoadRatio() (ratio float64, rounds int) {
	var logSum float64
	n := 0
	for i, rep := range s.first {
		if rep == nil {
			continue
		}
		rounds += rep.Stats.Rounds
		logSum += math.Log(float64(rep.Stats.MaxLoad) / s.Cases[i].Bound)
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return math.Exp(logSum / float64(n)), rounds
}

// SeqFallback reports whether any case asked for workers and ran
// sequentially (nproc == 1).
func (s *Session) SeqFallback() bool {
	for _, rep := range s.first {
		if rep != nil && rep.Stats.SeqFallback {
			return true
		}
	}
	return false
}
