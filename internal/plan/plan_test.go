package plan

import (
	"fmt"
	"reflect"
	"testing"

	"coverpack/internal/hypergraph"
)

func reset(t *testing.T) {
	t.Helper()
	Reset()
	t.Cleanup(Reset)
}

func TestForCreatesAndReusesEntries(t *testing.T) {
	reset(t)
	q := hypergraph.Line3Join()
	h1, ok := For(q)
	if !ok {
		t.Fatal("For declined a cacheable query")
	}
	h2, ok := For(q)
	if !ok || h2.e != h1.e {
		t.Fatal("repeat For did not return the same entry")
	}
	if s := Snapshot(); s.Entries != 1 {
		t.Fatalf("entries=%d, want 1", s.Entries)
	}
	// A pure renaming shares the entry through the canonical key.
	ren := hypergraph.MustParse("line3-ren", "S1(X,Y) S2(Y,Z) S3(Z,W)")
	h3, ok := For(ren)
	if !ok || h3.e != h1.e {
		t.Fatal("isomorphic renaming did not share the entry")
	}
	if s := Snapshot(); s.Entries != 1 {
		t.Fatalf("entries=%d after renaming, want 1", s.Entries)
	}
}

func TestInvariantSlotsAndIsoHits(t *testing.T) {
	reset(t)
	q := hypergraph.Line3Join()
	h, _ := For(q)
	if _, ok := h.Invariant("x"); ok {
		t.Fatal("empty slot reported a hit")
	}
	h.SetInvariant("x", 42)
	if v, ok := h.Invariant("x"); !ok || v.(int) != 42 {
		t.Fatal("stored invariant not returned")
	}
	s := Snapshot()
	if s.Hits != 1 || s.Misses != 1 || s.IsoHits != 0 {
		t.Fatalf("stats=%+v, want hits=1 misses=1 isoHits=0", s)
	}
	// The same slot read through an isomorphic fingerprint is an iso
	// hit.
	ren := hypergraph.MustParse("line3-ren", "S1(X,Y) S2(Y,Z) S3(Z,W)")
	hr, _ := For(ren)
	if v, ok := hr.Invariant("x"); !ok || v.(int) != 42 {
		t.Fatal("invariant not shared across the isomorphism class")
	}
	if s := Snapshot(); s.IsoHits != 1 {
		t.Fatalf("isoHits=%d, want 1", s.IsoHits)
	}
}

func TestGYORoundTrip(t *testing.T) {
	reset(t)
	for _, q := range []*hypergraph.Query{
		hypergraph.Line3Join(),
		hypergraph.StarJoin(3),
		hypergraph.SemiJoinExample(),
	} {
		want, wantOK := hypergraph.GYO(q)
		got, ok := GYO(q) // miss: computes and stores
		if ok != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: first GYO diverged from direct computation", q.Name())
		}
		got2, ok2 := GYO(q) // hit: loads and remaps
		if ok2 != wantOK || !reflect.DeepEqual(got2, want) {
			t.Fatalf("%s: cached GYO diverged from direct computation\n  want %+v\n  got  %+v",
				q.Name(), want, got2)
		}
	}
	if s := Snapshot(); s.EquivHits == 0 {
		t.Fatalf("no equivariant hits recorded: %+v", s)
	}
}

func TestGYOCyclicCached(t *testing.T) {
	reset(t)
	q := hypergraph.TriangleJoin()
	if _, ok := GYO(q); ok {
		t.Fatal("triangle reported acyclic")
	}
	if _, ok := GYO(q); ok {
		t.Fatal("cached triangle reported acyclic")
	}
	if Acyclic(q) {
		t.Fatal("Acyclic(triangle) = true")
	}
	if !Acyclic(hypergraph.Line3Join()) {
		t.Fatal("Acyclic(line3) = false")
	}
}

func TestCoverRoundTrip(t *testing.T) {
	reset(t)
	q := hypergraph.Line3Join()
	h, _ := For(q)
	if _, ok := h.Cover(); ok {
		t.Fatal("empty cover slot reported a hit")
	}
	var es hypergraph.EdgeSet
	es.Add(0)
	es.Add(2)
	h.SetCover(es)
	got, ok := h.Cover()
	if !ok || !reflect.DeepEqual(got.Edges(), es.Edges()) {
		t.Fatalf("cover round trip: got %v ok=%v, want %v", got.Edges(), ok, es.Edges())
	}
	// A pure renaming shares the embedding, so the remapped cover is
	// identical in its own (equal) coordinates.
	ren := hypergraph.MustParse("line3-ren", "S1(X,Y) S2(Y,Z) S3(Z,W)")
	hr, _ := For(ren)
	got2, ok := hr.Cover()
	if !ok || !reflect.DeepEqual(got2.Edges(), es.Edges()) {
		t.Fatalf("renamed cover: got %v ok=%v, want %v", got2.Edges(), ok, es.Edges())
	}
}

func TestPermSignatureSubKeying(t *testing.T) {
	reset(t)
	// p and emb are isomorphic but embedded differently (attribute ids
	// assigned in another order), so they share invariants but not
	// equivariant slots.
	p := hypergraph.MustParse("p", "R1(A,B) R2(B,C) R3(C,D)")
	emb := hypergraph.MustParse("p-emb", "R1(B,C) R2(C,D) R3(B,A)")
	hp, _ := For(p)
	he, _ := For(emb)
	if hp.e != he.e {
		t.Fatal("isomorphic embeddings did not share the shape entry")
	}
	if hp.cf.PermSignature() == he.cf.PermSignature() {
		t.Fatal("different embeddings share a perm signature (test premise broken)")
	}
	tree, ok := hypergraph.GYO(p)
	if !ok {
		t.Fatal("path query reported cyclic")
	}
	hp.SetJoinTree(tree)
	// Equivariant artifacts stored through one embedding are invisible
	// to the other...
	if _, _, hit := he.JoinTree(emb); hit {
		t.Fatal("equivariant slot leaked across embeddings")
	}
	// ...while invariants are shared.
	hp.SetInvariant("x", 1)
	if _, ok := he.Invariant("x"); !ok {
		t.Fatal("invariant not shared across embeddings")
	}
	// Each embedding's cached GYO equals its direct computation.
	gotP, okP, hitP := hp.JoinTree(p)
	if !hitP || !okP || !reflect.DeepEqual(gotP, tree) {
		t.Fatal("join tree round trip through own embedding diverged")
	}
	wantE, _ := hypergraph.GYO(emb)
	gotE, okE := GYO(emb)
	if !okE || !reflect.DeepEqual(gotE, wantE) {
		t.Fatal("differently-embedded GYO diverged from direct computation")
	}
}

func TestLRUEviction(t *testing.T) {
	reset(t)
	oldMax := maxEntries
	maxEntries = 2
	defer func() { maxEntries = oldMax }()

	paths := make([]*hypergraph.Query, 4)
	handles := make([]Handle, 4)
	for i := range paths {
		paths[i] = hypergraph.PathJoin(i + 2) // distinct shapes
		h, ok := For(paths[i])
		if !ok {
			t.Fatalf("For declined path-%d", i+2)
		}
		handles[i] = h
		h.SetInvariant("k", i)
	}
	s := Snapshot()
	if s.Entries != 2 || s.Evictions != 2 {
		t.Fatalf("entries=%d evictions=%d, want 2/2", s.Entries, s.Evictions)
	}
	// The two oldest shapes were evicted; their handles are dead, and a
	// fresh For re-creates the entry without the stored slot.
	h, ok := For(paths[0])
	if !ok {
		t.Fatal("For declined a previously evicted shape")
	}
	if h.e == handles[0].e {
		t.Fatal("evicted entry was resurrected instead of re-created")
	}
	if _, ok := h.Invariant("k"); ok {
		t.Fatal("evicted slot survived eviction")
	}
	// The newest shapes are still live.
	if _, ok := handles[3].Invariant("k"); !ok {
		t.Fatal("most recent entry was evicted")
	}
}

func TestOversizeQueryDeclined(t *testing.T) {
	reset(t)
	q := hypergraph.PathJoin(hypergraph.CanonMaxEdges + 2)
	if _, ok := For(q); ok {
		t.Fatal("For accepted an oversize query")
	}
	want, wantOK := hypergraph.GYO(q)
	got, ok := GYO(q)
	if ok != wantOK || !reflect.DeepEqual(got, want) {
		t.Fatal("oversize GYO diverged from direct computation")
	}
}

func TestFingerprintMapBounded(t *testing.T) {
	reset(t)
	oldMax := maxFingerprints
	maxFingerprints = 3
	defer func() { maxFingerprints = oldMax }()
	for i := 0; i < 10; i++ {
		q := hypergraph.MustParse(fmt.Sprintf("fp%d", i), "R(A,B) S(B,C)")
		if _, ok := For(q); !ok {
			t.Fatalf("For declined fp%d", i)
		}
	}
	// All ten names share one shape; the fingerprint fast path stayed
	// bounded while the entry count did not grow.
	if s := Snapshot(); s.Entries != 1 {
		t.Fatalf("entries=%d, want 1", s.Entries)
	}
}
