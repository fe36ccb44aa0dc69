package coverpack_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"coverpack"
	"coverpack/internal/hashtab"
	"coverpack/internal/hypergraph"
	"coverpack/internal/relation"
)

// Engine shutdown hygiene: after Release (run by every ExecuteOpts
// path via its deferred cluster release), no engine goroutine may
// linger. Fork participants are joined by the fork barrier itself, so
// any goroutine surviving an execution is a leak. GOMAXPROCS is raised
// for the test's duration so parallel worker pools really engage
// (WithWorkers falls back to sequential at GOMAXPROCS=1, which would
// make the check vacuous on a single-CPU host).
func TestExecuteOptsPathsLeakNoGoroutines(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	in := coverpack.Uniform(hypergraph.Line3Join(), 1200, 1500, 3)
	triIn := coverpack.Uniform(hypergraph.TriangleJoin(), 1200, 1500, 3)
	paths := []struct {
		name string
		alg  coverpack.Algorithm
		eo   coverpack.ExecOptions
	}{
		{"default", coverpack.AlgYannakakis, coverpack.ExecOptions{}},
		{"workers", coverpack.AlgYannakakis, coverpack.ExecOptions{Workers: 4}},
		{"workers-traced", coverpack.AlgTriangle, coverpack.ExecOptions{Workers: 4, Recorder: coverpack.NewTraceCollector()}},
		{"gomaxprocs-workers", coverpack.AlgHyperCube, coverpack.ExecOptions{Workers: -1}},
	}

	// Warm up process-level machinery (pools, lazily started runtime
	// helpers) so the baseline below is steady state.
	if _, err := coverpack.Execute(coverpack.AlgYannakakis, in, 8); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	baseline := runtime.NumGoroutine()

	for _, pc := range paths {
		runIn := in
		if pc.alg == coverpack.AlgTriangle {
			runIn = triIn
		}
		if _, err := coverpack.ExecuteOpts(pc.alg, runIn, 8, pc.eo); err != nil {
			t.Fatalf("%s: %v", pc.name, err)
		}
		// Fork goroutines are joined before ExecuteOpts returns; give the
		// scheduler a bounded grace window for exit bookkeeping only.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if now := runtime.NumGoroutine(); now > baseline {
			t.Fatalf("%s: %d goroutines after Release, baseline %d", pc.name, now, baseline)
		}
	}
}

// Keyed kernels borrow their hash tables: every table SemiJoin, Join and
// FirstRows take from the hashtab pools goes back before they return,
// and so does every table of a whole run, so no exchange-output
// fragment keeps one.
func TestKeyedKernelsReturnTables(t *testing.T) {
	balanced := func(what string) {
		t.Helper()
		if st := hashtab.PoolStats(); st.Gets == 0 || st.Puts != st.Gets || st.Discards != 0 {
			t.Errorf("%s: hashtab pools %+v, want every get put back", what, st)
		}
		// Relation arenas: the local steps' scratch goes back before the
		// step returns, and a run's exchange arenas at its Release.
		if st := relation.PoolStats(); st.Puts+st.Discards != st.Gets {
			t.Errorf("%s: arena pools %+v, want every get put back", what, st)
		}
	}
	rng := rand.New(rand.NewSource(1))
	fresh := func(attrs ...int) *relation.Relation {
		r := relation.New(relation.NewSchema(attrs...))
		for i := 0; i < 200; i++ {
			r.AddValues(rng.Int63n(20), rng.Int63n(20))
		}
		return r
	}
	for _, k := range []struct {
		name string
		run  func(r, s *relation.Relation)
	}{
		{"SemiJoin", func(r, s *relation.Relation) { r.SemiJoin(s) }},
		{"Join", func(r, s *relation.Relation) { r.Join(s) }},
		{"FirstRows", func(r, _ *relation.Relation) { r.FirstRows() }},
	} {
		r, s := fresh(0, 1), fresh(1, 2)
		hashtab.ResetPoolStats()
		relation.ResetPoolStats()
		k.run(r, s)
		balanced(k.name)
	}
	// Whole runs: Yannakakis's pair joins and semi-joins, the acyclic
	// algorithm's server-major aggregation and light-group lookup, and
	// the skew-aware strata's domain counts.
	in := coverpack.Uniform(hypergraph.Line3Join(), 1200, 1500, 3)
	for _, alg := range []coverpack.Algorithm{coverpack.AlgYannakakis, coverpack.AlgAcyclicOptimal, coverpack.AlgSkewAware} {
		for _, w := range []int{1, 4} {
			hashtab.ResetPoolStats()
			relation.ResetPoolStats()
			if _, err := coverpack.ExecuteOpts(alg, in, 8, coverpack.ExecOptions{Workers: w}); err != nil {
				t.Fatal(err)
			}
			balanced(alg.String() + " run")
		}
	}
}

// Two runs on one shared *Instance at the same time. The inputs outlive
// both runs, and each run's ScatterDedup lists their distinct rows
// through the same retained first-row lists: under -race this checks
// that a list is published safely, and either way each run must report
// what the same run reports alone.
func TestConcurrentRunsShareInstance(t *testing.T) {
	gen := func() *coverpack.Instance { return coverpack.Uniform(hypergraph.Line3Join(), 1200, 60, 5) }
	algs := []coverpack.Algorithm{coverpack.AlgYannakakis, coverpack.AlgAcyclicOptimal}
	eo := coverpack.ExecOptions{Workers: 2}
	want := make([]coverpack.Report, len(algs))
	for i, alg := range algs {
		rep, err := coverpack.ExecuteOpts(alg, gen(), 8, eo)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = *rep
	}
	shared := gen()
	got := make([]coverpack.Report, len(algs))
	errs := make([]error, len(algs))
	var wg sync.WaitGroup
	for i, alg := range algs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := coverpack.ExecuteOpts(alg, shared, 8, eo)
			if errs[i] = err; err == nil {
				got[i] = *rep
			}
		}()
	}
	wg.Wait()
	for i, alg := range algs {
		if errs[i] != nil {
			t.Fatalf("%v: %v", alg, errs[i])
		}
		got[i].Stats.SeqFallback, want[i].Stats.SeqFallback = false, false
		if got[i] != want[i] {
			t.Errorf("%v on a shared instance: %+v, alone %+v", alg, got[i], want[i])
		}
	}
}

// Every exchange puts its scratch back: after catalog runs on one worker
// and on four — where Parallel branches exchange at the same time, each
// on its own scratch, and big exchanges fan out over several chunks —
// the scratch pool has handed out exactly as many as came back. (A put
// counts a scratch whose oversized vectors it drops as pooled.)
//
// Workers fall back to sequential at GOMAXPROCS=1, so a single-CPU host
// raises it for the test. Only there: raising and restoring it on every
// -race -count run crashed the race runtime (Go 1.24.0).
func TestExchangeScratchBalanced(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		prev := runtime.GOMAXPROCS(2)
		defer runtime.GOMAXPROCS(prev)
	}
	coverpack.ResetPoolStats()
	run := func(in *coverpack.Instance, w int) {
		for _, alg := range oracleAlgorithms {
			// An algorithm that rejects the query class exchanges nothing.
			_, _ = coverpack.ExecuteOpts(alg, in, 8, coverpack.ExecOptions{Workers: w})
		}
	}
	for _, w := range []int{1, 4} {
		for _, entry := range coverpack.Catalog() {
			run(coverpack.Uniform(entry.Query, 400, 500, 1), w)
		}
		run(coverpack.Uniform(hypergraph.Line3Join(), 1600, 2000, 7), w)
	}
	if st := coverpack.SendPoolStats(); st.Gets == 0 || st.Puts != st.Gets || st.Discards != 0 {
		t.Fatalf("exchange scratch pool %+v, want every get put back", st)
	}
}

// No store has a switch: the memory pools, the retained first-row lists
// and the metrics registry are always on. No cluster has a mode switch
// either: a run has one accounting convention. A source scan of every
// non-test file fails on any package-level func Set…(bool) but the
// inert SetMetricsEnabled stub in stubs.go, and on any func With…(bool).
func TestNoStoreSwitches(t *testing.T) {
	allowed := map[string]bool{"stubs.go:SetMetricsEnabled": true}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !strings.HasPrefix(fn.Name.Name, "Set") && !strings.HasPrefix(fn.Name.Name, "With") {
				continue
			}
			params := fn.Type.Params.List
			if len(params) != 1 || len(params[0].Names) > 1 {
				continue
			}
			if id, ok := params[0].Type.(*ast.Ident); !ok || id.Name != "bool" {
				continue
			}
			name := filepath.ToSlash(path) + ":" + fn.Name.Name
			switch {
			case strings.HasPrefix(fn.Name.Name, "With"):
				t.Errorf("%s: %s(bool) is a mode switch; clusters carry none", fset.Position(fn.Pos()), name)
			case !allowed[name]:
				t.Errorf("%s: %s(bool) is a process-wide switch; stores carry none", fset.Position(fn.Pos()), name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMetricsWriteOnly pins the telemetry no-perturbation contract in
// the source, since metrics have no off position to compare against:
// recording cannot change a run if nothing in a run reads a series.
// Outside internal/metrics, the commands and the root metrics.go, only a
// package's own metrics.go imports internal/metrics; and no non-test
// file reads (Value, Count, Sum, Snapshot) a variable declared in its
// package's metrics.go.
func TestMetricsWriteOnly(t *testing.T) {
	reads := map[string]bool{"Value": true, "Count": true, "Sum": true, "Snapshot": true}
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // non-test files by directory
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		files[dir] = append(files[dir], f)
		if dir == "internal/metrics" || dir == "cmd" || strings.HasPrefix(dir, "cmd/") || filepath.Base(path) == "metrics.go" {
			return nil
		}
		for _, imp := range f.Imports {
			if imp.Path.Value == `"coverpack/internal/metrics"` {
				t.Errorf("%s: imports internal/metrics outside its package's metrics.go", fset.Position(imp.Pos()))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for dir, pkg := range files {
		if dir == "internal/metrics" {
			continue
		}
		series := map[string]bool{}
		for _, f := range pkg {
			if filepath.Base(fset.Position(f.Pos()).Filename) != "metrics.go" {
				continue
			}
			for _, decl := range f.Decls {
				if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
					for _, spec := range gd.Specs {
						for _, id := range spec.(*ast.ValueSpec).Names {
							series[id.Name] = true
						}
					}
				}
			}
		}
		if len(series) == 0 {
			continue
		}
		for _, f := range pkg {
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || !reads[sel.Sel.Name] {
					return true
				}
				if root := rootIdent(sel.X); root != nil && series[root.Name] {
					t.Errorf("%s: reads series %s.%s; metrics are write-only", fset.Position(sel.Pos()), root.Name, sel.Sel.Name)
				}
				return true
			})
		}
	}
}

// rootIdent is the identifier a selector chain, call or index starts
// from (mPhaseSeconds in mPhaseSeconds.With(p).Count()), or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.CallExpr:
			e = x.Fun
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}
