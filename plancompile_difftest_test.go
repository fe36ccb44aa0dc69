package coverpack_test

import (
	"testing"

	"coverpack"
	"coverpack/internal/hypergraph"
)

// Plan-compile-cache oracle: for every catalog query × algorithm ×
// worker count, a run with the compile cache forced OFF (the pre-cache
// compilation path) is the reference, and cache-on runs — cold (just
// after a full reset) and warm (entries populated by the cold run) —
// must match it byte for byte across the report, the span tree, and
// the per-phase load attribution. Warm arms are where isomorphic
// sharing and equivariant remapping actually serve artifacts, so a
// remap bug cannot hide.

// TestPlanCompileOracleCatalog sweeps the full catalog × algorithm ×
// worker matrix.
func TestPlanCompileOracleCatalog(t *testing.T) {
	defer coverpack.ResetPlanCompileCache()
	defer coverpack.ResetAnalyzeCache()
	for _, entry := range coverpack.Catalog() {
		entry := entry
		t.Run(entry.Query.Name(), func(t *testing.T) {
			in := coverpack.Uniform(entry.Query, 400, 500, 1)
			for _, alg := range oracleAlgorithms {
				ref, err := tracedExec(alg, in, 8, coverpack.ExecOptions{Workers: 1, PlanCompile: coverpack.PlanCompileOff})
				if err != nil {
					// The algorithm rejects this query class; nothing to
					// compare.
					continue
				}
				for _, w := range []int{1, 4} {
					coverpack.ResetPlanCompileCache()
					coverpack.ResetAnalyzeCache()
					for _, arm := range []string{"cold", "warm"} {
						got, err := tracedExec(alg, in, 8, coverpack.ExecOptions{Workers: w, PlanCompile: coverpack.PlanCompileOn})
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

// TestPlanCompileIsomorphicQueries pins the isomorphic-sharing
// contract end to end: a renamed catalog query shares the canonical
// shape entry with the original (the hit counters prove it) and its
// runs produce the identically-shaped report — the instance generator
// and the executor see the same structure, so everything measurable
// matches modulo the name remap.
func TestPlanCompileIsomorphicQueries(t *testing.T) {
	coverpack.ResetPlanCompileCache()
	coverpack.ResetAnalyzeCache()
	defer coverpack.ResetPlanCompileCache()
	defer coverpack.ResetAnalyzeCache()

	base := hypergraph.Line3Join()
	ren := hypergraph.MustParse("line3-iso", "T1(P,Q) T2(Q,R) T3(R,S)")
	if k1, k2 := coverpack.CanonicalKey(base), coverpack.CanonicalKey(ren); k1 == "" || k1 != k2 {
		t.Fatalf("renamed query did not share the canonical key: %q vs %q", k1, k2)
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
			t.Errorf("%s: isomorphic runs diverged:\n  base:    emitted=%d stats={%v} L=%d\n  renamed: emitted=%d stats={%v} L=%d",
				alg, repBase.Emitted, repBase.Stats, repBase.L, repRen.Emitted, repRen.Stats, repRen.L)
		}
		if after.IsoHits <= before.IsoHits {
			t.Errorf("%s: renamed run recorded no isomorphic hits (before=%d after=%d)",
				alg, before.IsoHits, after.IsoHits)
		}
	}
}
