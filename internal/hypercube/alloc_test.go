package hypercube

import (
	"testing"

	"coverpack/internal/hypergraph"
	"coverpack/internal/mpc"
	"coverpack/internal/workload"
)

// The one-round algorithms allocate per relation, per stratum and per
// server, never per tuple: growing the input tenfold at fixed p moves
// the allocation count by a constant. The constant is per server:
// between the two sizes the skew-aware statistics (Degrees) outgrow the
// linear-scan aggregation and switch to a hash table on every server,
// and the strata's distinct-value maps grow. One allocation per routed
// or stratified tuple would add more than 50 000.
func TestOneRoundAllocsDoNotGrowWithN(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items at random")
	}
	const p = 64
	const slack = 128 * p
	for _, tc := range []struct {
		name string
		run  func(n int) func()
	}{
		{"hypercube/triangle-matching", func(n int) func() {
			in := workload.Matching(hypergraph.TriangleJoin(), n)
			return func() {
				if _, err := Run(mpc.NewCluster(p).Root(), in); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"skew-aware/semijoin-hub", func(n int) func() {
			in := workload.HeavyHub(hypergraph.SemiJoinExample(), n)
			return func() {
				if _, err := SkewAwareWithThreshold(mpc.NewCluster(p).Root(), in, int64(n/8)); err != nil {
					t.Fatal(err)
				}
			}
		}},
	} {
		small := testing.AllocsPerRun(3, tc.run(2000))
		large := testing.AllocsPerRun(3, tc.run(20000))
		t.Logf("%s: %.0f allocations at n=2000, %.0f at n=20000", tc.name, small, large)
		if d := large - small; d >= slack || d <= -slack {
			t.Errorf("%s: %.0f allocations at n=2000 but %.0f at n=20000", tc.name, small, large)
		}
	}
}
