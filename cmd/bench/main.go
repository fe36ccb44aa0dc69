// Command bench is the repository's one benchmark: end-to-end metrics
// per workload with tracing off, per-layer metrics from a separate
// traced run, every output checked. internal/bench/README.md is the
// manual; BENCHMARK.json is the contract a driver runs it under.
//
//	go run ./cmd/bench                           # every workload, 5 sets of 12 passes each, then the traced runs
//	go run ./cmd/bench -calibrate                # the end-to-end part twice, differences against the bounds
//	go run ./cmd/bench -workload exchange_seq    # one end-to-end run of 12 passes, in this process
//	go run ./cmd/bench -workload exchange_seq -trace 1 -out spans/
//	go run ./cmd/bench -workload exchange_seq -seconds 15   # time-boxed, as the driver runs it
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"coverpack/internal/bench"
)

// buildDir is the one directory, under the working directory, the
// benchmark writes to unless -out says otherwise.
const buildDir = ".bench_build"

// The full benchmark measures every workload in sets runs of setPasses
// passes each, and traces it for tracedPasses rounds. The counts are
// fixed so that every count repeats exactly; 5 × 12 passes leave 12
// samples beyond pass_ms_p80.
const (
	sets         = 5
	setPasses    = 12
	tracedPasses = 10
)

type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     int
	out       string
	calibrate bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload in this process (default: all, one child process per run)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the workload generators")
	flag.Float64Var(&o.seconds, "seconds", 0, "with -workload: measure for this long instead of a fixed number of passes")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 = end-to-end run, 1 = traced run (per-layer metrics)")
	flag.StringVar(&o.out, "out", "", "directory the traced run writes its spans to, as <workload>.jsonl (default: not written)")
	flag.BoolVar(&o.calibrate, "calibrate", false, "run the end-to-end part twice and compare the two against the bounds")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	switch {
	case flag.NArg() > 0:
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	case o.seconds < 0 || o.seconds > 600:
		return fmt.Errorf("-seconds %g: want 0..600", o.seconds)
	case o.trace != 0 && o.trace != 1:
		return fmt.Errorf("-trace %d: want 0 or 1", o.trace)
	case o.workload == "" && (o.seconds != 0 || o.trace != 0):
		return fmt.Errorf("-seconds and -trace go with -workload: the full benchmark's pass counts are fixed")
	}
	if o.workload != "" {
		return runOne(o)
	}
	if o.calibrate {
		return calibrate(o)
	}
	return runAll(o)
}

// runOne is one run of one workload in this process: the shape the
// driver of BENCHMARK.json calls, and the child of runAll.
func runOne(o options) error {
	w, ok := bench.WorkloadByName(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	spill, err := makeSpillDir()
	if err != nil {
		return err
	}
	defer removeSpillDir(spill)
	printEnv(o, spill)

	cfg := bench.Config{Seed: o.seed, SpillDir: spill, Scale: 1, Duration: time.Duration(o.seconds * float64(time.Second)), Setups: 5, KernelReps: 5}
	if o.seconds == 0 {
		cfg.Passes = setPasses
		if o.trace == 1 {
			cfg.Passes = tracedPasses
		}
	}
	var res *bench.Result
	specs := bench.EndToEndMetrics()
	if o.trace == 0 {
		res, err = bench.EndToEnd(w, cfg)
	} else {
		specs = bench.PerLayerMetrics()
		var out io.Writer
		var f *os.File
		if o.out != "" {
			if err := os.MkdirAll(o.out, 0o755); err != nil {
				return err
			}
			if f, err = os.Create(filepath.Join(o.out, w.Name+".jsonl")); err != nil {
				return err
			}
			out = f
		}
		res, err = bench.Traced(w, cfg, out)
		if f != nil {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
	}
	if err != nil {
		return err
	}

	fmt.Printf("# workload %s\n# passes %d\n# seq_fallback %v\n", w.Name, len(res.PassMs), res.SeqFallback)
	if res.SeqFallback {
		fmt.Println("# NOTE: one core: the parallel engine fell back to sequential, these are not parallel numbers (mpc.engine.seq_fallbacks > 0)")
	}
	fmt.Println(passMsPrefix + joinFloats(res.PassMs))
	for _, f := range res.Failures {
		fmt.Println("# FAILED", f)
	}
	// The staged op must cost what ExecuteOpts costs, or the stage
	// times say nothing about it.
	cover := res.Metrics["coverpack.stage_cover"]
	coverOK := o.trace == 0 || (cover >= 0.9 && cover <= 1.1)
	if !coverOK {
		fmt.Printf("# FAILED coverpack.stage_cover = %.3f, outside 0.9..1.1\n", cover)
	}
	for _, sp := range specs {
		fmt.Printf("%-40s %16s %s\n", sp.Name, formatValue(res.Metrics[sp.Name]), sp.Unit)
	}
	fmt.Printf("%-40s %16s ratio (%d of %d ops)\n", "fail_share", formatValue(res.FailShare()), res.Failed, res.Attempted)

	line := resultLine{Correct: res.Correct() && coverOK, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
	for _, sp := range specs {
		line.Metrics[sp.Name] = metricValue{Value: res.Metrics[sp.Name], Unit: sp.Unit}
	}
	js, err := json.Marshal(line)
	if err != nil {
		return err
	}
	// Remove the spill directory before the result line, so that the
	// line is the last thing this process does that anyone can see.
	removeSpillDir(spill)
	fmt.Println(string(js))
	if !line.Correct {
		return fmt.Errorf("%s: %d of %d ops failed, stage_cover %.3f", w.Name, res.Failed, res.Attempted, cover)
	}
	return nil
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }

// passMsPrefix starts the line on which a run prints the wall time of
// each of its passes: the full benchmark pools them over a workload's
// sets for pass_ms_p80.
const passMsPrefix = "# pass_ms "

func joinFloats(xs []float64) string {
	fields := make([]string, len(xs))
	for i, x := range xs {
		fields[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return strings.Join(fields, " ")
}

func makeSpillDir() (string, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(buildDir, "spill-")
	if err != nil {
		return "", err
	}
	return filepath.Abs(dir)
}

func removeSpillDir(dir string) {
	os.RemoveAll(dir)
	os.Remove(buildDir) // only succeeds when nothing else is in it
}

func printEnv(o options, spill string) {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Printf("# nproc %d\n# GOMAXPROCS %d\n# GOGC %s\n# go %s\n# commit %s\n# seed %d\n# workers %d (exchange_par)\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), gogc, runtime.Version(), commit, o.seed, bench.ParWorkers())
	if spill != "" {
		fmt.Printf("# spill_dir %s (%s)\n", spill, bench.FilesystemOf(spill))
	}
}

// child runs one workload in a process of its own, so that caches,
// pools and peak RSS belong to that run alone, and returns its result
// line, its pass times and its standard output.
func child(o options, workload string, trace int) (resultLine, []float64, string, error) {
	exe, err := os.Executable()
	if err != nil {
		return resultLine{}, nil, "", err
	}
	args := []string{"-workload", workload, "-seed", strconv.FormatUint(o.seed, 10), "-trace", strconv.Itoa(trace)}
	if o.out != "" {
		args = append(args, "-out", o.out)
	}
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	text := strings.TrimRight(stdout.String(), "\n")
	lines := strings.Split(text, "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		if runErr != nil {
			return line, nil, text, fmt.Errorf("%s: %w", workload, runErr)
		}
		return line, nil, text, fmt.Errorf("%s: no result line: %w", workload, err)
	}
	var passMs []float64
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(l, passMsPrefix); ok {
			for _, f := range strings.Fields(rest) {
				v, err := strconv.ParseFloat(f, 64)
				if err != nil {
					return line, nil, text, fmt.Errorf("%s: pass times: %w", workload, err)
				}
				passMs = append(passMs, v)
			}
		}
	}
	return line, passMs, text, nil
}

// suite is the end-to-end part of the benchmark: sets runs of every
// workload, interleaved round-robin (A B C … A B C …) so that slow
// drift of the machine spreads over all workloads alike.
type suite struct {
	values   map[string]map[string][]float64 // workload -> metric -> one value per set
	passMs   map[string][]float64            // workload -> the pass times of all its sets
	failed   map[string]int
	attempts map[string]int
}

func runSuite(o options) (*suite, error) {
	s := &suite{values: map[string]map[string][]float64{}, passMs: map[string][]float64{}, failed: map[string]int{}, attempts: map[string]int{}}
	for set := 0; set < sets; set++ {
		for _, w := range bench.Workloads() {
			fmt.Fprintf(os.Stderr, "set %d/%d %s\n", set+1, sets, w.Name)
			line, passMs, text, err := child(o, w.Name, 0)
			if err != nil {
				return nil, err
			}
			if !line.Correct {
				fmt.Println(text)
			}
			if s.values[w.Name] == nil {
				s.values[w.Name] = map[string][]float64{}
			}
			for name, mv := range line.Metrics {
				s.values[w.Name][name] = append(s.values[w.Name][name], mv.Value)
			}
			s.passMs[w.Name] = append(s.passMs[w.Name], passMs...)
			s.failed[w.Name] += line.Failed
			s.attempts[w.Name] += line.Attempted
		}
	}
	return s, nil
}

// value is the workload's reported value of the metric: the median
// over its sets, except pass_ms_p80, which is the 80th percentile of
// the passes of all sets together (a set alone has too few beyond it),
// and ok_share, which is over all ops.
func (s *suite) value(workload, metric string) float64 {
	switch metric {
	case "pass_ms_p80":
		return bench.Percentile(s.passMs[workload], 80)
	case "ok_share":
		return 1 - s.failShare(workload)
	}
	return bench.Median(s.values[workload][metric])
}

// spread is the distance between the quartiles of the metric's values
// over the sets, as a share of their median.
func (s *suite) spread(workload, metric string) float64 {
	vs := s.values[workload][metric]
	return (bench.Percentile(vs, 75) - bench.Percentile(vs, 25)) / bench.Median(vs)
}

func (s *suite) failShare(workload string) float64 {
	if s.attempts[workload] == 0 {
		return 0
	}
	return float64(s.failed[workload]) / float64(s.attempts[workload])
}

func (s *suite) anyFailed() bool {
	for _, f := range s.failed {
		if f > 0 {
			return true
		}
	}
	return false
}

func (s *suite) print() {
	fmt.Printf("\nEnd-to-end metrics (%d sets of %d passes per workload)\n", sets, setPasses)
	for _, w := range bench.Workloads() {
		fmt.Printf("\n%s (%d passes)\n", w.Name, len(s.passMs[w.Name]))
		for _, sp := range bench.EndToEndMetrics() {
			fmt.Printf("  %-22s %16s %s\n", sp.Name, formatValue(s.value(w.Name, sp.Name)), sp.Unit)
		}
		fmt.Printf("  %-22s %16s ratio (%d of %d ops)\n", "fail_share", formatValue(s.failShare(w.Name)), s.failed[w.Name], s.attempts[w.Name])
	}
}

// runAll is the whole benchmark: the end-to-end suite, then one traced
// child per workload.
func runAll(o options) error {
	printEnv(o, "")
	s, err := runSuite(o)
	if err != nil {
		return err
	}
	s.print()

	layer := map[string]map[string]float64{}
	bad := s.anyFailed()
	for _, w := range bench.Workloads() {
		fmt.Fprintf(os.Stderr, "traced %s\n", w.Name)
		line, _, text, err := child(o, w.Name, 1)
		if err != nil {
			return err
		}
		if !line.Correct {
			fmt.Println(text)
			bad = true
		}
		layer[w.Name] = map[string]float64{}
		for name, mv := range line.Metrics {
			layer[w.Name][name] = mv.Value
		}
	}
	fmt.Printf("\nPer-layer metrics (traced run, %d rounds), one column per workload:\n%-40s %-8s", tracedPasses, "", "unit")
	for _, w := range bench.Workloads() {
		fmt.Printf(" %13s", w.Name)
	}
	fmt.Println()
	for _, sp := range bench.PerLayerMetrics() {
		fmt.Printf("%-40s %-8s", sp.Name, sp.Unit)
		for _, w := range bench.Workloads() {
			fmt.Printf(" %13s", strconv.FormatFloat(layer[w.Name][sp.Name], 'g', 6, 64))
		}
		fmt.Println()
	}
	if bad {
		return fmt.Errorf("benchmark failed: see the FAILED lines above")
	}
	return nil
}

// calibrate runs the end-to-end suite twice on the same code and
// prints, for every (metric, workload), how far the second value is
// on the worse side of the first, next to the bound. A pair beyond its
// bound whose own sets spread wider than the bound is unresolved, not
// a difference: the machine moved more than the bound can see.
func calibrate(o options) error {
	printEnv(o, "")
	a, err := runSuite(o)
	if err != nil {
		return err
	}
	b, err := runSuite(o)
	if err != nil {
		return err
	}
	outside, unresolved := 0, 0
	fmt.Printf("\n%-14s %-20s %14s %14s %9s %6s %7s\n", "workload", "metric", "first", "second", "worse by", "bound", "spread")
	for _, w := range bench.Workloads() {
		for _, sp := range bench.EndToEndMetrics() {
			x, y := a.value(w.Name, sp.Name), b.value(w.Name, sp.Name)
			worse := (y - x) / x
			if sp.Better == "higher" {
				worse = (x - y) / x
			}
			spread := max(a.spread(w.Name, sp.Name), b.spread(w.Name, sp.Name))
			verdict := ""
			switch {
			case sp.Exact && x != y:
				verdict = "  NOT EQUAL"
				outside++
			case worse > sp.Bound && spread > sp.Bound:
				verdict = "  UNRESOLVED"
				unresolved++
			case worse > sp.Bound:
				verdict = "  OUTSIDE"
				outside++
			}
			fmt.Printf("%-14s %-20s %14s %14s %8.2f%% %5g%% %6.1f%%%s\n", w.Name, sp.Name, formatValue(x), formatValue(y), 100*worse, 100*sp.Bound, 100*spread, verdict)
		}
	}
	if a.anyFailed() || b.anyFailed() {
		return fmt.Errorf("calibration: ops failed")
	}
	if outside > 0 {
		return fmt.Errorf("calibration: %d (metric, workload) pairs outside their bounds", outside)
	}
	fmt.Printf("\ncalibration: no pair outside its bound, %d unresolved\n", unresolved)
	return nil
}
