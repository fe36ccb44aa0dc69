package coverpack_test

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
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
	// Whole runs of all seven algorithms: every arena a run takes — a
	// local step's output, an exchange's blob, a counter's prefix join —
	// goes back, through its owner's Free or the run's Release, and none
	// twice. The acyclic ones and skew-aware run on line-3, the cyclic
	// ones and HyperCube (whose triangle count folds through prefix
	// joins) on a triangle with a heavy hub, whose heavy strata recurse
	// into the acyclic algorithm.
	line3 := coverpack.Uniform(hypergraph.Line3Join(), 1200, 1500, 3)
	tri := coverpack.HeavyHub(hypergraph.TriangleJoin(), 400)
	for _, alg := range []coverpack.Algorithm{coverpack.AlgYannakakis, coverpack.AlgAcyclicOptimal,
		coverpack.AlgAcyclicConservative, coverpack.AlgSkewAware, coverpack.AlgHyperCube,
		coverpack.AlgTriangle, coverpack.AlgLoomisWhitney} {
		in := line3
		if alg == coverpack.AlgHyperCube || alg == coverpack.AlgTriangle || alg == coverpack.AlgLoomisWhitney {
			in = tri
		}
		for _, w := range []int{1, 4} {
			hashtab.ResetPoolStats()
			relation.ResetPoolStats()
			if _, err := coverpack.ExecuteOpts(alg, in, 8, coverpack.ExecOptions{Workers: w}); err != nil {
				t.Fatal(err)
			}
			balanced(fmt.Sprintf("%s run at Workers %d", alg, w))
		}
	}
}

// Two runs on one shared *Instance at the same time. The inputs outlive
// both runs, and each run's set check at the door (Relation.AsSet from
// ExecuteOpts) reads the same retained first-row lists: under -race this
// checks that a list is published safely, and either way each run must
// report what the same run reports alone.
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

// testOnlyAllowed lists, keyed as funcKey names them, the functions no
// run reaches that stay, each with its reason: references the tests
// compare the engine against, and accessors the tests of other packages
// read. What an entry calls needs no entry of its own. A seam only its
// own package's tests use belongs in that package's _test.go files, and
// anything else no run reaches is deleted.
var testOnlyAllowed = map[string]string{
	"coverpack/internal/relation.Instance.Join":           "sequential reference join the relation, hypercube, primitives and core tests compare runs against",
	"coverpack/internal/relation.Instance.SemiJoinReduce": "sequential reference for primitives' distributed semi-join reduction",
	"coverpack/internal/relation.Relation.Equal":          "order-insensitive comparison the tests of several packages check outputs with",
	"coverpack/internal/relation.Key":                     "legacy keyed path the routing tests check hashtab.Hash destinations against",
	"coverpack/internal/hypergraph.Query.Residual":        "Q_x by its definition, the reference fractional's ψ* tests enumerate",
	"coverpack/internal/pool.Pool.Reserved":               "reserve accounting the pool and relation arena-pool tests check",
	"coverpack/internal/trace.Span.TotalUnits":            "a span subtree's volume, which the trace, mpc, primitives and core tests check",
}

// TestNoTestOnlyCode fails on any top-level function or method of
// non-test Go that no run reaches, unless testOnlyAllowed lists it or
// what it lists calls it; and on any entry of testOnlyAllowed that a run
// reaches, that names no function or that gives no reason. It
// type-checks every package of the module from source, importing
// through the export data `go list -export` leaves in the build cache,
// and closes over uses from the roots: main and init, every function of
// the frozen benchmark harness (internal/bench, cmd/bench), the root
// package's exported API, every package-level variable's initializer,
// and every method that satisfies an interface some package declares (a
// call through an interface reaches it).
func TestNoTestOnlyCode(t *testing.T) {
	args := []string{"list", "-deps", "-export", "-json=ImportPath,Dir,GoFiles,Export,Standard"}
	if raceEnabled {
		args = append(args, "-race")
	}
	if arenaCheckEnabled {
		args = append(args, "-tags=arenacheck")
	}
	out, err := exec.Command("go", append(args, "./...")...).Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	type listed struct {
		ImportPath, Dir, Export string
		GoFiles                 []string
		Standard                bool
	}
	exports := map[string]string{}
	var mods []listed
	for dec := json.NewDecoder(strings.NewReader(string(out))); dec.More(); {
		var p listed
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		exports[p.ImportPath] = p.Export
		if !p.Standard {
			mods = append(mods, p)
		}
	}
	fset := token.NewFileSet()
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})}

	type decl struct {
		pos   token.Pos
		lines int
	}
	decls := map[string]decl{}
	uses := map[string]map[string]bool{} // function key -> keys its body names; "" for package-level initializers
	var roots []string
	var named []*types.Named // concrete types whose methods an interface may reach
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seenPkg := map[*types.Package]bool{}
	var addIfaces func(p *types.Package)
	addIfaces = func(p *types.Package) {
		if seenPkg[p] {
			return
		}
		seenPkg[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, q := range p.Imports() {
			addIfaces(q)
		}
	}

	for _, m := range mods {
		var files []*ast.File
		for _, name := range m.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(m.Dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
		pkg, err := conf.Check(m.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", m.ImportPath, err)
		}
		addIfaces(pkg)
		for _, tv := range info.Types {
			switch tt := tv.Type.(type) {
			case *types.Interface:
				ifaces = append(ifaces, tt)
			case *types.Named: // instances of generic types, as they are used
				if tt.TypeArgs().Len() > 0 {
					named = append(named, tt)
				}
			}
		}
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if nt, ok := tn.Type().(*types.Named); ok && nt.TypeParams().Len() == 0 {
					named = append(named, nt)
				}
			}
		}
		frozen := m.ImportPath == "coverpack/internal/bench" || m.ImportPath == "coverpack/cmd/bench"
		usesIn := func(from string, n ast.Node) {
			set := uses[from]
			if set == nil {
				set = map[string]bool{}
				uses[from] = set
			}
			ast.Inspect(n, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if fn, ok := info.Uses[id].(*types.Func); ok {
						set[funcKey(fn)] = true
					}
				}
				return true
			})
		}
		for _, f := range files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					usesIn("", d)
					continue
				}
				fn := info.Defs[fd.Name].(*types.Func)
				key := funcKey(fn)
				usesIn(key, fd)
				if fd.Recv == nil && (fd.Name.Name == "init" || fd.Name.Name == "main" && pkg.Name() == "main") {
					roots = append(roots, key)
					continue
				}
				decls[key] = decl{fd.Pos(), fset.Position(fd.End()).Line - fset.Position(fd.Pos()).Line + 1}
				api := pkg.Path() == "coverpack" && fn.Exported() && (fd.Recv == nil || token.IsExported(recvName(fn)))
				if frozen || api {
					roots = append(roots, key)
				}
			}
		}
	}
	roots = append(roots, "")
	for _, nt := range named {
		if types.IsInterface(nt) {
			continue
		}
		ptr := types.NewPointer(nt)
		for _, it := range ifaces {
			if it.NumMethods() == 0 || !it.IsMethodSet() || !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name()); obj != nil {
					roots = append(roots, funcKey(obj.(*types.Func)))
				}
			}
		}
	}
	closure := func(from []string) map[string]bool {
		seen := map[string]bool{}
		for len(from) > 0 {
			k := from[len(from)-1]
			from = from[:len(from)-1]
			if !seen[k] {
				seen[k] = true
				for u := range uses[k] {
					from = append(from, u)
				}
			}
		}
		return seen
	}
	reached := closure(roots)
	var allowed []string
	for k, why := range testOnlyAllowed {
		allowed = append(allowed, k)
		switch _, ok := decls[k]; {
		case !ok:
			t.Errorf("allowlisted %s names no function", k)
		case reached[k]:
			t.Errorf("allowlisted %s is reached by a run; drop its entry", k)
		case strings.TrimSpace(why) == "":
			t.Errorf("allowlisted %s gives no reason", k)
		}
	}
	kept := closure(allowed)

	var unreached []string
	for k := range decls {
		if !reached[k] && !kept[k] {
			unreached = append(unreached, k)
		}
	}
	sort.Strings(unreached)
	for _, k := range unreached {
		t.Errorf("%s: %s (%d lines) is reached by no run; delete it, move it into a _test.go file, or allowlist it with a reason",
			fset.Position(decls[k].pos), k, decls[k].lines)
	}
}

// funcKey names a function by package path, receiver type and name:
// "coverpack/internal/relation.Instance.Join".
func funcKey(fn *types.Func) string {
	fn = fn.Origin()
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	if r := recvName(fn); r != "" {
		return pkg + "." + r + "." + fn.Name()
	}
	return pkg + "." + fn.Name()
}

// recvName is the name of fn's receiver type, "" for a function or a
// method of an unnamed interface.
func recvName(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return ""
	}
	rt := types.Unalias(recv.Type())
	if p, ok := rt.(*types.Pointer); ok {
		rt = types.Unalias(p.Elem())
	}
	if n, ok := rt.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}
