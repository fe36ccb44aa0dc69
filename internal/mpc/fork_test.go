package mpc

import (
	"fmt"
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
					branches[b] = Branch{Servers: 2, Run: func(sub *Group) { sub.Fork(n, func(i int) { fn(b, i) }) }}
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
		branches[bi] = Branch{Servers: 2, Run: func(sub *Group) {
			c.fork(6, func(j int) {
				if bi >= 1 && j >= 3 {
					panic(fmt.Sprintf("nested-boom-%d", bi))
				}
			})
		}}
	}
	g.Parallel(branches)
}
