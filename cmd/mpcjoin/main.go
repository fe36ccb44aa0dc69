// Command mpcjoin runs one MPC join algorithm on a generated instance
// and prints the measured cost:
//
//	mpcjoin -query "R1(A,B) R2(B,C) R3(C,D)" -alg acyclic-optimal -p 16 -n 10000
//	mpcjoin -catalog square -alg hypercube -p 64 -n 1000 -workload hard
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"coverpack"
	"coverpack/internal/profiling"
	"coverpack/internal/sched"
)

func main() { os.Exit(run()) }

// run is the command: it returns the exit status, so every deferred
// close — the profiles, the trace file, the debug server — runs on
// every path, a failed run's included. 2 is a bad flag, 1 a failed run.
func run() (status int) {
	var (
		queryStr  = flag.String("query", "", "query in R(A,B) S(B,C) notation")
		catalog   = flag.String("catalog", "", "catalog query name (e.g. square, line3, figure4)")
		algName   = flag.String("alg", "acyclic-optimal", "algorithm: acyclic-optimal | acyclic-conservative | hypercube | hypercube-skew-aware | yannakakis | triangle-multiround | lw-multiround")
		p         = flag.Int("p", 16, "number of servers")
		n         = flag.Int("n", 10000, "tuples per relation")
		dom       = flag.Int64("dom", 0, "attribute domain size (default 5·n)")
		kind      = flag.String("workload", "uniform", "workload: uniform | zipf | matching | agm | hard | heavyhub")
		skew      = flag.Float64("skew", 1.1, "zipf skew parameter")
		seed      = flag.Uint64("seed", 1, "random seed")
		decisions = flag.Bool("decisions", false, "print the acyclic algorithm's decision log: the notes it leaves on the run's own trace")
		traceFile = flag.String("trace", "", "write an execution trace to this file")
		traceFmt  = flag.String("trace-format", "chrome", "trace rendering: jsonl, chrome, or heatmap")
		workers   = flag.Int("workers", 0, "goroutine workers INSIDE the simulated run (0 = GOMAXPROCS, 1 = sequential); results are identical for every setting")
		parallel  = flag.Int("parallel", 1, "repeat the run this many times concurrently through the run-level scheduler and require identical reports (determinism stress mode)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")
		debugAddr = flag.String("debug-addr", "", "serve /metrics, /metrics.json and /debug/pprof on this address (e.g. 127.0.0.1:9190; \":0\" picks a free port)")
	)
	flag.Parse()

	if *debugAddr != "" {
		srv, err := coverpack.StartDebugServer(*debugAddr)
		if err != nil {
			return fail(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "mpcjoin: telemetry on http://%s/\n", srv.Addr())
	}

	q, err := pickQuery(*queryStr, *catalog)
	if err != nil {
		return fail(err)
	}
	if *dom == 0 {
		*dom = int64(*n) * 5
	}
	if err := checkSizes(q, *kind, *n, *dom); err != nil {
		fmt.Fprintln(os.Stderr, "mpcjoin:", err)
		return 2
	}
	alg, err := pickAlg(*algName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpcjoin:", err)
		return 2
	}
	if *decisions && alg != coverpack.AlgAcyclicOptimal && alg != coverpack.AlgAcyclicConservative {
		fmt.Fprintf(os.Stderr, "mpcjoin: -decisions: %s keeps no decision log; only %s and %s do\n",
			alg, coverpack.AlgAcyclicOptimal, coverpack.AlgAcyclicConservative)
		return 2
	}
	if *parallel < 1 {
		fmt.Fprintf(os.Stderr, "mpcjoin: -parallel %d: need at least 1 repetition\n", *parallel)
		return 2
	}
	// The trace flags are checked, and the file created, before the run.
	tf, err := coverpack.ParseTraceFormat(*traceFmt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpcjoin: -trace-format:", err)
		return 2
	}
	var traceOut *os.File
	if *traceFile != "" {
		if traceOut, err = os.Create(*traceFile); err != nil {
			fmt.Fprintln(os.Stderr, "mpcjoin: -trace:", err)
			return 2
		}
		defer func() {
			traceOut.Close()
			if status != 0 {
				os.Remove(traceOut.Name()) // a failed run leaves no trace file
			}
		}()
	}

	var in *coverpack.Instance
	switch *kind {
	case "uniform":
		in = coverpack.Uniform(q, *n, *dom, *seed)
	case "zipf":
		in = coverpack.Zipf(q, *n, *dom, *skew, *seed)
	case "matching":
		in = coverpack.Matching(q, *n)
	case "heavyhub":
		in = coverpack.HeavyHub(q, *n)
	case "agm":
		in, err = coverpack.AGMWorstCase(q, *n)
		if err != nil {
			return fail(err)
		}
	case "hard":
		in, err = coverpack.PackingHard(q, *n, *seed)
		if err != nil {
			return fail(err)
		}
	default:
		return fail(fmt.Errorf("unknown workload %q", *kind))
	}

	// One collector serves -trace and -decisions: the decision log is
	// the notes on the run's own trace.
	var col *coverpack.TraceCollector
	var rec coverpack.TraceRecorder
	if traceOut != nil || *decisions {
		col = coverpack.NewTraceCollector()
		rec = col
	}
	nw := *workers
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
	}
	reps := *parallel
	if product := nw * reps; product > runtime.NumCPU() {
		fmt.Fprintf(os.Stderr, "mpcjoin: warning: -workers(%d) × -parallel(%d) = %d goroutines exceeds %d CPUs; oversubscription adds scheduling overhead without extra speedup\n",
			nw, reps, product, runtime.NumCPU())
	}

	// Profile paths are validated up front: a bad -cpuprofile or
	// -memprofile path fails here, not silently after the run.
	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		return fail(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "mpcjoin:", err)
		}
	}()

	eo := coverpack.ExecOptions{Workers: nw, Recorder: rec}
	start := time.Now()
	var rep *coverpack.Report
	var err2 error
	if reps == 1 {
		rep, err2 = coverpack.ExecuteOpts(alg, in, *p, eo)
	} else {
		rep, err2 = runRepeated(alg, in, *p, reps, eo)
	}
	elapsed := time.Since(start)
	if err2 != nil {
		return fail(err2)
	}
	if *decisions {
		for _, l := range coverpack.Decisions(col.Root()) {
			fmt.Println("trace:", l)
		}
	}
	if traceOut != nil {
		if terr := coverpack.WriteTrace(traceOut, col.Root(), tf); terr != nil {
			return fail(terr)
		}
		if terr := traceOut.Close(); terr != nil {
			return fail(terr)
		}
		fmt.Printf("trace       %s (%s)\n", *traceFile, tf)
	}
	fmt.Printf("query       %s\n", q)
	fmt.Printf("workload    %s  N=%d  total=%d\n", *kind, in.N(), in.TotalTuples())
	fmt.Printf("algorithm   %s  p=%d", rep.Algorithm, *p)
	if rep.L > 0 {
		fmt.Printf("  L=%d", rep.L)
	}
	fmt.Println()
	fmt.Printf("emitted     %d join results\n", rep.Emitted)
	fmt.Printf("cost        %s\n", rep.Stats)
	fmt.Printf("wall-clock  %s  (workers=%d of %d CPUs)\n", elapsed.Round(time.Microsecond), nw, runtime.NumCPU())
	pc := coverpack.PlanCompileCacheStats()
	fmt.Printf("plan-cache  shapes=%d hits=%d misses=%d\n", pc.Entries, pc.Hits, pc.Misses)
	return 0
}

// runRepeated executes the same join reps times concurrently through
// the run-level scheduler and requires every repetition to produce the
// identical report — a CLI-reachable determinism stress test. The trace
// recorder, if any, is attached to the first repetition only.
func runRepeated(alg coverpack.Algorithm, in *coverpack.Instance, p, reps int, eo coverpack.ExecOptions) (*coverpack.Report, error) {
	cells := make([]func() (*coverpack.Report, error), reps)
	for i := range cells {
		ceo := eo
		if i != 0 {
			ceo.Recorder = nil
		}
		cells[i] = func() (*coverpack.Report, error) { return coverpack.ExecuteOpts(alg, in, p, ceo) }
	}
	out, err := sched.Run(cells, reps)
	if err != nil {
		return nil, err
	}
	for i := 1; i < reps; i++ {
		if *out[i] != *out[0] {
			return nil, fmt.Errorf("determinism violation: repetition %d produced %+v, repetition 0 produced %+v", i, *out[i], *out[0])
		}
	}
	fmt.Printf("parallel    %d concurrent repetitions, all reports identical\n", reps)
	return out[0], nil
}

// checkSizes rejects the sizes no instance can have: fewer than one
// tuple per relation, a negative domain, and, for the workloads that
// draw n distinct tuples from the domain (uniform, zipf), a domain whose
// dom^arity tuples cannot hold n of them on some relation. dom is the
// domain after -dom 0 has defaulted to 5·n.
func checkSizes(q *coverpack.Query, kind string, n int, dom int64) error {
	if n < 1 {
		return fmt.Errorf("-n %d: need at least 1 tuple per relation", n)
	}
	if dom < 0 {
		return fmt.Errorf("-dom %d: the domain size cannot be negative (0 picks 5·n)", dom)
	}
	if kind != "uniform" && kind != "zipf" {
		return nil
	}
	for e := 0; e < q.NumEdges(); e++ {
		space := int64(1)
		for k := q.EdgeVars(e).Len(); k > 0 && space < int64(n); k-- {
			if dom > 0 && space > math.MaxInt64/dom {
				space = math.MaxInt64
				break
			}
			space *= dom
		}
		if space < int64(n) {
			return fmt.Errorf("-dom %d: relation %s holds at most %d distinct tuples, fewer than -n %d",
				dom, q.Edge(e).Name, space, n)
		}
	}
	return nil
}

func pickQuery(queryStr, catalog string) (*coverpack.Query, error) {
	switch {
	case queryStr != "":
		return coverpack.ParseQuery("cli", queryStr)
	case catalog != "":
		for _, e := range coverpack.Catalog() {
			if strings.EqualFold(e.Query.Name(), catalog) {
				return e.Query, nil
			}
		}
		var names []string
		for _, e := range coverpack.Catalog() {
			names = append(names, e.Query.Name())
		}
		return nil, fmt.Errorf("unknown catalog query %q; available: %s", catalog, strings.Join(names, ", "))
	default:
		return nil, fmt.Errorf("pass -query or -catalog")
	}
}

func pickAlg(name string) (coverpack.Algorithm, error) {
	var names []string
	for _, a := range []coverpack.Algorithm{
		coverpack.AlgAcyclicOptimal, coverpack.AlgAcyclicConservative,
		coverpack.AlgHyperCube, coverpack.AlgSkewAware, coverpack.AlgYannakakis,
		coverpack.AlgTriangle, coverpack.AlgLoomisWhitney,
	} {
		if a.String() == name {
			return a, nil
		}
		names = append(names, a.String())
	}
	return 0, fmt.Errorf("-alg %q: unknown algorithm; available: %s", name, strings.Join(names, ", "))
}

// fail reports a failed run and returns its exit status.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "mpcjoin:", err)
	return 1
}
