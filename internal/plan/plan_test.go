package plan

import (
	"fmt"
	"reflect"
	"sync"
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
		t.Fatal("For declined a query")
	}
	h2, _ := For(q)
	if h2.e != h1.e {
		t.Fatal("repeat For did not return the same entry")
	}
	// A pure renaming has the same edge structure and shares the entry.
	ren := hypergraph.MustParse("line3-ren", "S1(X,Y) S2(Y,Z) S3(Z,W)")
	if h3, _ := For(ren); h3.e != h1.e {
		t.Fatal("pure renaming did not share the entry")
	}
	if s := Snapshot(); s.Entries != 1 {
		t.Fatalf("entries=%d after renaming, want 1", s.Entries)
	}
	// Reordered edges are another edge structure: their own entry.
	rot := hypergraph.MustParse("line3-rot", "R2(B,C) R3(C,D) R1(A,B)")
	if h4, _ := For(rot); h4.e == h1.e {
		t.Fatal("reordered edges shared the entry")
	}
	if s := Snapshot(); s.Entries != 2 {
		t.Fatalf("entries=%d after reordering, want 2", s.Entries)
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
		t.Fatal("stored slot not returned")
	}
	// A pure renaming reads the slot through the shared entry; that is
	// an ordinary hit, and IsoHits stays 0.
	ren := hypergraph.MustParse("line3-ren", "S1(X,Y) S2(Y,Z) S3(Z,W)")
	hr, _ := For(ren)
	if v, ok := hr.Invariant("x"); !ok || v.(int) != 42 {
		t.Fatal("slot not shared with a pure renaming")
	}
	if s := Snapshot(); s.Hits != 2 || s.Misses != 1 || s.IsoHits != 0 {
		t.Fatalf("stats=%+v, want hits=2 misses=1 isoHits=0", s)
	}
}

// TestCoverRoundTrip: a cover, held in the query's own edge coordinates,
// is served to a pure renaming, and never to an isomorphic spelling with
// other ids, whose coordinates differ.
func TestCoverRoundTrip(t *testing.T) {
	reset(t)
	q := hypergraph.MustParse("p", "R1(A,B) R2(B,C) R3(C,D)")
	h, _ := For(q)
	es := hypergraph.NewEdgeSet(0, 2)
	h.SetInvariant("cover", es)
	ren := hypergraph.MustParse("p-ren", "S1(W,X) S2(X,Y) S3(Y,Z)")
	hr, _ := For(ren)
	if v, ok := hr.Invariant("cover"); !ok || !reflect.DeepEqual(v.(hypergraph.EdgeSet).Edges(), es.Edges()) {
		t.Fatalf("renamed cover: got %v ok=%v, want %v", v, ok, es.Edges())
	}
	emb := hypergraph.MustParse("p-emb", "R1(B,C) R2(C,D) R3(B,A)")
	he, _ := For(emb)
	if _, ok := he.Invariant("cover"); ok {
		t.Fatal("a cover leaked to a spelling with other ids")
	}
}

// TestWarmLookupAllocatesNothing: once a shape is known, For and a slot
// read allocate nothing, for a parsed query and for one built from raw
// id sets with AddEdgeVars.
func TestWarmLookupAllocatesNothing(t *testing.T) {
	reset(t)
	built := hypergraph.NewQuery("built")
	built.AddEdgeVars("R", hypergraph.NewVarSet(0, 1))
	built.AddEdgeVars("S", hypergraph.NewVarSet(1, 70))
	for _, q := range []*hypergraph.Query{hypergraph.Line3Join(), built} {
		h, _ := For(q)
		h.SetInvariant("x", 1)
		allocs := testing.AllocsPerRun(100, func() {
			h, _ := For(q)
			if _, ok := h.Invariant("x"); !ok {
				t.Fatal("warm slot missed")
			}
		})
		if allocs != 0 {
			t.Errorf("%s: warm For + Invariant allocates %v objects, want 0", q.Name(), allocs)
		}
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
		got2, ok2 := GYO(q) // hit
		if ok2 != wantOK || !reflect.DeepEqual(got2, want) {
			t.Fatalf("%s: cached GYO diverged from direct computation\n  want %+v\n  got  %+v",
				q.Name(), want, got2)
		}
	}
	if s := Snapshot(); s.Hits == 0 {
		t.Fatalf("no join tree was served from an entry: %+v", s)
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

// TestLRUEviction: a new shape arriving at maxEntries clears the map, so
// the entry count never passes the bound; a cleared shape is re-created
// empty, and the newest shape stays live.
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
		if s := Snapshot(); s.Entries > 2 {
			t.Fatalf("entries=%d after path-%d, want at most 2", s.Entries, i+2)
		}
	}
	if h, _ := For(paths[3]); h.e != handles[3].e {
		t.Fatal("the newest entry was cleared")
	}
	h, _ := For(paths[0])
	if h.e == handles[0].e {
		t.Fatal("a cleared entry was resurrected instead of re-created")
	}
	if _, ok := h.Invariant("k"); ok {
		t.Fatal("a slot survived the clear")
	}
}

// TestFingerprintMapBounded: spellings that differ only in names share
// one entry, so any number of them never fills the map or clears it.
func TestFingerprintMapBounded(t *testing.T) {
	reset(t)
	oldMax := maxEntries
	maxEntries = 3
	defer func() { maxEntries = oldMax }()
	first, _ := For(hypergraph.MustParse("fp0", "R(A,B) S(B,C)"))
	for i := 1; i < 10; i++ {
		q := hypergraph.MustParse(fmt.Sprintf("fp%d", i), fmt.Sprintf("R%d(A%d,B%d) S%d(B%d,C%d)", i, i, i, i, i, i))
		if h, ok := For(q); !ok || h.e != first.e {
			t.Fatalf("fp%d did not share the first spelling's entry", i)
		}
	}
	if s := Snapshot(); s.Entries != 1 {
		t.Fatalf("entries=%d, want 1", s.Entries)
	}
}

// TestLongQueryCached: a path too long for a canonical labeling is
// cached like any other query, and its join tree equals hypergraph.GYO's.
func TestLongQueryCached(t *testing.T) {
	reset(t)
	q := hypergraph.PathJoin(hypergraph.CanonMaxEdges + 2)
	want, wantOK := hypergraph.GYO(q)
	for i := 0; i < 2; i++ {
		got, ok := GYO(q)
		if ok != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("lookup %d: GYO diverged from direct computation", i)
		}
	}
	if s := Snapshot(); s.Entries != 1 || s.Hits != 1 {
		t.Fatalf("stats=%+v, want one entry and one hit", s)
	}
}

// TestConcurrentLookups: lookups, slot reads and writes, and wholesale
// clears from several goroutines at once (run it under -race).
func TestConcurrentLookups(t *testing.T) {
	reset(t)
	oldMax := maxEntries
	maxEntries = 3
	defer func() { maxEntries = oldMax }()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				q := hypergraph.PathJoin(2 + (g+i)%5)
				if _, ok := GYO(q); !ok {
					t.Errorf("%s reported cyclic", q.Name())
					return
				}
				h, _ := For(q)
				h.SetInvariant("n", q.NumEdges())
				if v, ok := h.Invariant("n"); ok && v.(int) != q.NumEdges() {
					t.Errorf("%s: slot holds %v", q.Name(), v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s := Snapshot(); s.Entries > 3 {
		t.Fatalf("entries=%d, want at most 3", s.Entries)
	}
}
