// Command experiments regenerates the paper's tables and figures as
// measured experiments on the MPC simulator:
//
//	experiments all            # everything
//	experiments table1         # worst-case complexity table
//	experiments figure4        # Example 3.4: conservative vs optimal run
//	experiments figure7 -small # quick sizes
//
// Subcommands: table1, figure1..figure7, section13, em, ablation, all.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"text/tabwriter"
	"time"

	"coverpack"
	"coverpack/internal/experiments"
	"coverpack/internal/profiling"
)

func main() { os.Exit(run()) }

// run is the command: it returns the exit status, so every deferred
// close — the profiles, the trace file, the debug server — runs on
// every path, a failed sweep's included. 2 is a bad flag, 1 a failed
// sweep.
func run() (status int) {
	small := flag.Bool("small", false, "use small experiment sizes")
	traceFile := flag.String("trace", "", "capture a trace of a representative run to this file")
	traceFormat := flag.String("trace-format", "chrome", "trace rendering: jsonl, chrome, or heatmap")
	workers := flag.Int("workers", 0, "goroutine workers INSIDE one simulated run (0 = GOMAXPROCS, 1 = sequential); independent of -parallel — the two multiply; tables are identical for every setting")
	parallel := flag.Int("parallel", 1, "run-level sweep workers: how many experiment cells (independent simulator runs) execute concurrently (0 = GOMAXPROCS); tables are identical for every setting")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /metrics.json and /debug/pprof on this address (e.g. 127.0.0.1:9190; \":0\" picks a free port)")
	flag.Parse()
	sub := "all"
	if flag.NArg() > 0 {
		sub = strings.ToLower(flag.Arg(0))
		// Accept flags after the subcommand too (experiments figure4
		// -trace out.json): re-parse the remainder.
		if flag.NArg() > 1 {
			if err := flag.CommandLine.Parse(flag.Args()[1:]); err != nil {
				return 2
			}
		}
	}
	nw := *workers
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
	}
	np := *parallel
	if np <= 0 {
		np = runtime.GOMAXPROCS(0)
	}
	if product := nw * np; product > runtime.NumCPU() {
		fmt.Fprintf(os.Stderr, "experiments: warning: -workers(%d) × -parallel(%d) = %d goroutines exceeds %d CPUs; oversubscription adds scheduling overhead without extra speedup\n",
			nw, np, product, runtime.NumCPU())
	}
	cfg := experiments.Config{Small: *small, Workers: nw, RunWorkers: np}

	// The trace flags are checked, and the file created, before the sweep.
	tf, err := coverpack.ParseTraceFormat(*traceFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments: -trace-format:", err)
		return 2
	}
	var traceOut *os.File
	if *traceFile != "" {
		if traceOut, err = os.Create(*traceFile); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: -trace:", err)
			return 2
		}
		defer func() {
			traceOut.Close()
			if status != 0 {
				os.Remove(traceOut.Name()) // a failed run leaves no trace file
			}
		}()
	}

	if *debugAddr != "" {
		srv, err := coverpack.StartDebugServer(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "experiments: telemetry on http://%s/\n", srv.Addr())
	}

	// Profile paths are validated up front: a bad -cpuprofile or
	// -memprofile path fails here, not silently after the sweep.
	stopProf, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
		}
	}()

	start := time.Now()
	var tables []experiments.Table
	switch sub {
	case "all":
		tables, err = experiments.All(cfg)
	case "table1":
		tables, err = experiments.Table1(cfg)
	case "figure1":
		tables, err = one(experiments.Figure1())
	case "figure2":
		tables, err = one(experiments.Figure2())
	case "figure3":
		tables, err = one(experiments.Figure3())
	case "figure4":
		tables, err = one(experiments.Figure4(cfg))
	case "figure5":
		tables, err = one(experiments.Figure5())
	case "figure6":
		tables, err = one(experiments.Figure6(cfg))
	case "figure7":
		tables, err = one(experiments.Figure7(cfg))
	case "section13":
		tables, err = one(experiments.Section13(cfg))
	case "em":
		tables, err = one(experiments.EMCorollary(cfg))
	case "ablation":
		var t1, t2 experiments.Table
		t1, err = experiments.AblationSkew(cfg)
		if err == nil {
			t2, err = experiments.AblationThreshold(cfg)
			tables = []experiments.Table{t1, t2}
		}
	default:
		err = fmt.Errorf("unknown experiment %q", sub)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return 1
	}
	elapsed := time.Since(start)
	for _, t := range tables {
		printTable(t)
	}
	fmt.Printf("wall-clock %s (run-workers=%d × intra-run workers=%d of %d CPUs)\n", elapsed.Round(time.Millisecond), np, nw, runtime.NumCPU())

	// Compile-cache reuse is diagnostics, never a table artifact: print
	// it to stderr so stdout holds only the tables.
	pc := coverpack.PlanCompileCacheStats()
	fmt.Fprintf(os.Stderr, "experiments: plan-cache shapes=%d hits=%d misses=%d\n",
		pc.Entries, pc.Hits, pc.Misses)

	if traceOut != nil {
		if err := captureTrace(sub, cfg, traceOut, tf); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
	}
	return 0
}

// captureTrace re-runs one representative instance of the experiment
// with tracing on, writes the rendered trace to f and closes it, and
// prints the per-phase load-attribution table.
func captureTrace(sub string, cfg experiments.Config, f *os.File, tf coverpack.TraceFormat) error {
	root, err := experiments.TraceRun(sub, cfg)
	if err != nil {
		return err
	}
	if err := coverpack.WriteTrace(f, root, tf); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("trace written to %s (%s)\n\n", f.Name(), tf)
	printTable(experiments.PhaseTableOf(root))
	return nil
}

func one(t experiments.Table, err error) ([]experiments.Table, error) {
	if err != nil {
		return nil, err
	}
	return []experiments.Table{t}, nil
}

func printTable(t experiments.Table) {
	fmt.Printf("== %s ==\n", t.Title)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(t.Header, "\t"))
	for _, r := range t.Rows {
		fmt.Fprintln(w, strings.Join(r, "\t"))
	}
	w.Flush()
	fmt.Println()
}
