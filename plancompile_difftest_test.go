package coverpack_test

import (
	"testing"

	"coverpack"
	"coverpack/internal/hypergraph"
)

// Plan-compile-cache oracle: for every catalog query × algorithm ×
// worker count, runs compiled from a cold shape cache (just after a
// reset) and from a warm one (entries populated by the cold run) must
// match the sequential cold reference byte for byte across the report,
// the span tree, and the per-phase load attribution. Warm arms are
// where the shape entries actually serve artifacts, so a stale slot
// cannot hide; TestShapeSlotsMatchDirect compares the served artifacts
// themselves with direct computation.

// TestPlanCompileOracleCatalog sweeps the full catalog × algorithm ×
// worker matrix. The queries run in parallel and reset the process-wide
// cache under one another: a reset can only make an arm colder than its
// name, which must never change a result.
func TestPlanCompileOracleCatalog(t *testing.T) {
	t.Parallel()
	for _, entry := range coverpack.Catalog() {
		t.Run(entry.Query.Name(), func(t *testing.T) {
			t.Parallel()
			in := coverpack.Uniform(entry.Query, 400, 500, 1)
			for _, alg := range oracleAlgorithms {
				coverpack.ResetPlanCompileCache()
				ref, err := tracedExec(alg, in, 8, coverpack.ExecOptions{Workers: 1})
				if err != nil {
					// The algorithm rejects this query class; nothing to
					// compare.
					continue
				}
				for _, w := range []int{1, 4} {
					coverpack.ResetPlanCompileCache()
					for _, arm := range []string{"cold", "warm"} {
						got, err := tracedExec(alg, in, 8, coverpack.ExecOptions{Workers: w})
						if err != nil {
							t.Errorf("%s/%s workers=%d %s: run failed where the reference succeeded: %v",
								entry.Query.Name(), alg, w, arm, err)
							continue
						}
						label := entry.Query.Name() + "/" + alg.String() + "/compile-" + arm
						assertRunsAgree(t, label, ref, got)
					}
				}
			}
		})
	}
}

// TestPlanCompileIsomorphicQueries: spellings of one shape compile to
// equal plans. A pure renaming shares the original's shape entry (the
// hit counters prove it, on its compile, on the skew-aware run that
// reads ψ* from the entry and on the acyclic run that reads join trees
// and covers), and its runs produce the identical report.
// A spelling with reordered edges and other attribute ids has its own
// entry and compiles, from it, to an equal analysis and plan.
func TestPlanCompileIsomorphicQueries(t *testing.T) {
	coverpack.ResetPlanCompileCache()
	coverpack.ResetAnalyzeCache()
	defer coverpack.ResetPlanCompileCache()
	defer coverpack.ResetAnalyzeCache()

	base := hypergraph.Line3Join()
	ren := hypergraph.MustParse("line3-ren", "T1(P,Q) T2(Q,R) T3(R,S)")
	reord := hypergraph.MustParse("line3-reord", "T3(R,S) T1(P,Q) T2(Q,R)")
	want, err := coverpack.CompileQuery(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []*coverpack.Query{ren, reord} {
		before := coverpack.PlanCompileCacheStats()
		got, err := coverpack.CompileQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		after := coverpack.PlanCompileCacheStats()
		if !sameAnalysis(got.Analysis, want.Analysis) || got.Acyclic != want.Acyclic || got.Algorithm != want.Algorithm {
			t.Errorf("%s: plan %+v %+v, want %+v %+v", q.Name(), *got, *got.Analysis, *want, *want.Analysis)
		}
		if q == ren && after.Hits <= before.Hits {
			t.Errorf("renamed compile was not served from the entry (hits %d -> %d)", before.Hits, after.Hits)
		}
		if q == reord && after.Entries != before.Entries+1 {
			t.Errorf("reordered compile did not get its own entry (entries %d -> %d)", before.Entries, after.Entries)
		}
	}

	for _, alg := range []coverpack.Algorithm{
		coverpack.AlgAcyclicOptimal, coverpack.AlgSkewAware, coverpack.AlgYannakakis,
	} {
		inBase := coverpack.Uniform(base, 400, 500, 1)
		inRen := coverpack.Uniform(ren, 400, 500, 1)

		repBase, err := coverpack.Execute(alg, inBase, 8)
		if err != nil {
			t.Fatalf("%s on base: %v", alg, err)
		}
		before := coverpack.PlanCompileCacheStats()
		repRen, err := coverpack.Execute(alg, inRen, 8)
		if err != nil {
			t.Fatalf("%s on renamed: %v", alg, err)
		}
		after := coverpack.PlanCompileCacheStats()

		rb, rr := *repBase, *repRen
		rb.Stats.SeqFallback, rr.Stats.SeqFallback = false, false
		if rb != rr {
			t.Errorf("%s: renamed runs diverged:\n  base:    emitted=%d stats={%v} L=%d\n  renamed: emitted=%d stats={%v} L=%d",
				alg, repBase.Emitted, repBase.Stats, repBase.L, repRen.Emitted, repRen.Stats, repRen.L)
		}
		// The acyclic run reads join trees and covers from shape entries
		// and the skew-aware run reads ψ*; Yannakakis reads none.
		if alg != coverpack.AlgYannakakis && after.Hits <= before.Hits {
			t.Errorf("%s: renamed run was not served from the entry (hits %d -> %d)",
				alg, before.Hits, after.Hits)
		}
	}
}
