package mpc

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"testing"
)

// TestForkRunsEachIndexOnce: every index of [0, n) runs exactly once,
// whatever the worker count and however many tokens the pool has left —
// a top-level fork, forks nested in concurrent Parallel branches, and
// the same nesting with every token already taken, where both the
// Parallel and the nested forks run inline.
func TestForkRunsEachIndexOnce(t *testing.T) {
	for _, w := range []int{2, 3, 8} {
		c := NewCluster(8, withForcedWorkers(w))
		g := c.Root()
		for _, n := range []int{1, 2, 7, 1000} {
			// run forks n tasks from each of nb callers, caller b counting
			// into counts[b], and checks every count is 1.
			check := func(label string, nb int, run func(fn func(b, i int))) {
				t.Helper()
				counts := make([][]atomic.Int32, nb)
				for b := range counts {
					counts[b] = make([]atomic.Int32, n)
				}
				run(func(b, i int) { counts[b][i].Add(1) })
				for b := range counts {
					for i := range counts[b] {
						if got := counts[b][i].Load(); got != 1 {
							t.Fatalf("workers=%d n=%d %s: caller %d index %d ran %d times", w, n, label, b, i, got)
						}
					}
				}
			}
			nested := func(fn func(b, i int)) {
				branches := make([]Branch, 4)
				for b := range branches {
					branches[b] = Branch{Servers: 2, Run: func(sub *Group) (int64, error) {
						sub.Fork(n, func(i int) { fn(b, i) })
						return 0, nil
					}}
				}
				g.Parallel(branches)
			}
			check("top-level", 1, func(fn func(b, i int)) { c.fork(n, func(i int) { fn(0, i) }) })
			check("nested", 4, nested)
			check("nested, pool exhausted", 4, func(fn func(b, i int)) {
				for k := 0; k < w-1; k++ {
					c.tokens <- struct{}{}
				}
				defer func() {
					for k := 0; k < w-1; k++ {
						<-c.tokens
					}
				}()
				nested(fn)
			})
		}
		c.Release()
	}
}

// Panic propagation through fork under nested Parallel branches: the
// inner fork re-raises its lowest panicking task index, the outer fork
// re-raises the lowest panicking branch.
func TestForkPanicPropagationNestedParallel(t *testing.T) {
	c := NewCluster(8, withForcedWorkers(4))
	defer c.Release()
	g := c.Root()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("nested panic swallowed by fork")
		}
		if s, ok := r.(string); !ok || s != "nested-boom-1" {
			t.Fatalf("recovered %v, want nested-boom-1 (lowest branch, lowest index)", r)
		}
	}()
	branches := make([]Branch, 4)
	for bi := range branches {
		branches[bi] = Branch{Servers: 2, Run: func(sub *Group) (int64, error) {
			c.fork(6, func(j int) {
				if bi >= 1 && j >= 3 {
					panic(fmt.Sprintf("nested-boom-%d", bi))
				}
			})
			return 0, nil
		}}
	}
	g.Parallel(branches)
}

// TestParallelReturnsCounts: Parallel hands back the branches' counts in
// branch order and the error of the lowest-index failed branch, and
// runs and charges every branch even when some fail, for every worker
// count.
func TestParallelReturnsCounts(t *testing.T) {
	errA, errB := errors.New("branch 1 failed"), errors.New("branch 3 failed")
	for _, w := range []int{1, 2, 4} {
		c := NewCluster(8, withForcedWorkers(w))
		var ran atomic.Int32
		branches := make([]Branch, 5)
		for i := range branches {
			branches[i] = Branch{Servers: 1, Run: func(sub *Group) (int64, error) {
				ran.Add(1)
				sub.ChargeControl([]int{i + 1})
				switch i {
				case 1:
					return 10, errA
				case 3:
					return 30, errB
				}
				return int64(100 * i), nil
			}}
		}
		counts, err := c.Root().Parallel(branches)
		if !errors.Is(err, errA) {
			t.Fatalf("workers=%d: error %v, want the lowest-index one %v", w, err, errA)
		}
		if want := []int64{0, 10, 200, 30, 400}; !slices.Equal(counts, want) {
			t.Fatalf("workers=%d: counts %v, want %v", w, counts, want)
		}
		if n := ran.Load(); n != 5 {
			t.Fatalf("workers=%d: %d of 5 branches ran", w, n)
		}
		if st := c.Stats(); st.Rounds != 1 || st.MaxLoad != 5 || st.TotalUnits != 15 {
			t.Fatalf("workers=%d: stats %v, want every branch charged", w, st)
		}
		c.Release()
	}
}

// TestEmitSums: Emit sums the servers' counts, saturating at
// math.MaxInt64, for every worker count; it charges nothing, and under
// the sequential engine it allocates nothing.
func TestEmitSums(t *testing.T) {
	for _, w := range []int{1, 2, 4} {
		c := NewCluster(8, withForcedWorkers(w))
		g := c.Root()
		cases := []struct {
			n     int
			count func(i int) int64
			want  int64
		}{
			{0, func(int) int64 { return 1 }, 0},
			{1, func(int) int64 { return 7 }, 7},
			{100, func(i int) int64 { return int64(i) }, 4950},
			{3, func(int) int64 { return math.MaxInt64 / 2 }, math.MaxInt64},
			{4, func(i int) int64 { return int64(i) * (math.MaxInt64 / 3) }, math.MaxInt64},
		}
		for _, tc := range cases {
			if got := g.Emit(tc.n, tc.count); got != tc.want {
				t.Fatalf("workers=%d: Emit(%d) = %d, want %d", w, tc.n, got, tc.want)
			}
		}
		if st := c.Stats(); st.Rounds != 0 || st.TotalUnits != 0 {
			t.Fatalf("workers=%d: Emit charged %v", w, st)
		}
		c.Release()
	}
	g := NewCluster(8).Root()
	count := func(i int) int64 { return int64(i) }
	if n := testing.AllocsPerRun(100, func() { g.Emit(64, count) }); n != 0 {
		t.Fatalf("sequential Emit allocates %v objects", n)
	}
}
