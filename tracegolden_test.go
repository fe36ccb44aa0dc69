package coverpack_test

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"coverpack"
	"coverpack/internal/hypergraph"
)

var updateTraceGolden = flag.Bool("update-trace-golden", false, "rewrite testdata/trace_*.golden")

// TestTraceRunGolden pins the generic algorithm's decision log: every
// reduction, (x, S^x) choice, branch count and Case II split of both
// runs on two inputs. The log is a function of the query structure and
// the heavy/light statistics only, so a change here means the algorithm
// decides differently, not that it got faster.
func TestTraceRunGolden(t *testing.T) {
	agm, err := coverpack.AGMWorstCase(hypergraph.PathJoin(4), 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []struct {
		name string
		in   *coverpack.Instance
	}{
		{"figure4hard6", coverpack.Figure4Hard(6)},
		{"path4agm64", agm},
	} {
		for _, alg := range []struct {
			name string
			alg  coverpack.Algorithm
		}{
			{"optimal", coverpack.AlgAcyclicOptimal},
			{"conservative", coverpack.AlgAcyclicConservative},
		} {
			lines, err := coverpack.TraceRun(alg.alg, in.in, 16)
			if err != nil {
				t.Fatal(err)
			}
			got := strings.Join(lines, "\n") + "\n"
			golden := filepath.Join("testdata", "trace_"+in.name+"_"+alg.name+".golden")
			if *updateTraceGolden {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s/%s: decision log differs from %s:\n%s", in.name, alg.name, golden, got)
			}
		}
	}
}
