package coverpack

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSpillNamesAreInert pins the stubs' contract: a run that asks for
// spilling under a one-byte budget writes nothing to its directory,
// moves no spill counter, and reports what the default run reports.
// Every algorithm runs on each of an acyclic and a cyclic query it
// accepts, sequentially and with 4 workers.
func TestSpillNamesAreInert(t *testing.T) {
	queries := []*Query{
		MustParseQuery("line3", "R1(A,B) R2(B,C) R3(C,D)"),
		MustParseQuery("triangle", "R1(A,B) R2(B,C) R3(A,C)"),
	}
	algs := []Algorithm{
		AlgYannakakis, AlgAcyclicOptimal, AlgAcyclicConservative,
		AlgHyperCube, AlgSkewAware, AlgTriangle, AlgLoomisWhitney,
	}
	for _, q := range queries {
		in := Uniform(q, 1600, 2000, 7)
		for _, alg := range algs {
			for _, w := range []int{1, 4} {
				want, err := ExecuteOpts(alg, in, 8, ExecOptions{Workers: w})
				if err != nil {
					continue // the algorithm rejects this query class
				}
				t.Run(fmt.Sprintf("%s/%v/workers=%d", q.Name(), alg, w), func(t *testing.T) {
					dir := t.TempDir()
					got, err := ExecuteOpts(alg, in, 8, ExecOptions{Workers: w, Spilling: SpillOn, SpillDir: dir, SpillBudgetBytes: 1})
					if err != nil {
						t.Fatal(err)
					}
					if *got != *want {
						t.Errorf("report %+v, want %+v", *got, *want)
					}
					if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
						t.Errorf("%d entries left in the spill dir (err %v)", len(ents), err)
					}
					if sc := SpillStats(); sc != (SpillCounters{}) {
						t.Errorf("SpillStats() = %+v, want zero", sc)
					}
				})
			}
		}
	}
}

// TestSetMetricsEnabledIsInert: metrics record whatever the stub was
// told, so a run after SetMetricsEnabled(false) still advances the
// round counter.
func TestSetMetricsEnabledIsInert(t *testing.T) {
	rounds := func() float64 {
		var sum float64
		for _, m := range TakeMetricsSnapshot().Metrics {
			if m.Name == "coverpack_mpc_rounds_total" {
				sum += *m.Value
			}
		}
		return sum
	}
	SetMetricsEnabled(false)
	defer SetMetricsEnabled(true)
	before := rounds()
	in := Uniform(MustParseQuery("line3", "R1(A,B) R2(B,C) R3(C,D)"), 400, 500, 1)
	if _, err := ExecuteOpts(AlgYannakakis, in, 8, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	if after := rounds(); after <= before {
		t.Errorf("coverpack_mpc_rounds_total stayed at %v across a run after SetMetricsEnabled(false)", after)
	}
}

// TestSpillNamesLiveInStubs keeps the inert names in one place, to be
// deleted when the benchmark contract reopens (ROADMAP, Parked): outside
// stubs.go, no top-level declaration of the root package, and no
// ExecOptions field other than Spilling, SpillDir, SpillBudgetBytes and
// ParKernels, names spilling, the LP solve memo (LPMemo*), the
// compile-cache mode (PlanCompileMode, PlanCompileDefault), the block
// kernels (ParKernel*, ParCounters, ParStats, ResetParStats) or the
// metrics switch (SetMetricsEnabled).
func TestSpillNamesLiveInStubs(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fields := map[string]bool{"Spilling": true, "SpillDir": true, "SpillBudgetBytes": true, "ParKernels": true}
	fset := token.NewFileSet()
	for _, name := range files {
		if name == "stubs.go" || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		check := func(id *ast.Ident) {
			stub := strings.Contains(id.Name, "Spill") || strings.HasPrefix(id.Name, "LPMemo") ||
				id.Name == "PlanCompileMode" || id.Name == "PlanCompileDefault" ||
				strings.HasPrefix(id.Name, "ParKernel") || id.Name == "ParCounters" ||
				id.Name == "ParStats" || id.Name == "ResetParStats" || id.Name == "SetMetricsEnabled"
			if stub && !fields[id.Name] {
				t.Errorf("%s: stub name %s outside stubs.go", fset.Position(id.Pos()), id.Name)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Recv == nil {
					check(n.Name)
				}
				return false
			case *ast.TypeSpec:
				check(n.Name)
				if st, ok := n.Type.(*ast.StructType); ok {
					for _, fl := range st.Fields.List {
						for _, id := range fl.Names {
							check(id)
						}
					}
				}
				return false
			case *ast.ValueSpec:
				for _, id := range n.Names {
					check(id)
				}
				return false
			}
			return true
		})
	}
}
