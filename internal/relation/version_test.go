package relation

import (
	"sync"
	"testing"
)

func TestVersionStableUntilMutation(t *testing.T) {
	r := New(NewSchema(0, 1))
	r.AddValues(1, 2)
	v1 := r.Version()
	if v1 == 0 {
		t.Fatal("version 0 is reserved for unstamped")
	}
	if v2 := r.Version(); v2 != v1 {
		t.Fatalf("version changed without mutation: %d -> %d", v1, v2)
	}
	r.AddValues(3, 4)
	if v3 := r.Version(); v3 == v1 {
		t.Fatal("mutation did not change the version")
	}
}

func TestVersionNeverReused(t *testing.T) {
	// Same content before and after a mutation cycle must still get
	// distinct stamps — identity is allocation order, not content hash.
	r := New(NewSchema(0))
	r.AddValues(7)
	v1 := r.Version()
	r.AddValues(8)
	s := New(NewSchema(0))
	s.AddValues(7)
	if v2 := s.Version(); v2 == v1 {
		t.Fatalf("stamp %d reused for a different relation", v1)
	}
}

func TestVersionDistinctAcrossRelations(t *testing.T) {
	a, b := New(NewSchema(0)), New(NewSchema(0))
	a.AddValues(1)
	b.AddValues(1)
	if a.Version() == b.Version() {
		t.Fatal("two relations share a version stamp")
	}
}

func TestVersionConcurrentStamping(t *testing.T) {
	r := New(NewSchema(0))
	r.AddValues(1)
	const n = 16
	got := make([]uint64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = r.Version()
		}()
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if got[i] != got[0] {
			t.Fatalf("concurrent stampers disagree: %d vs %d", got[i], got[0])
		}
	}
}

// sameList reports whether two FirstRows results are one retained list.
func sameList(a, b []int32) bool {
	return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0]
}

func TestIndexReusedUntilInvalidated(t *testing.T) {
	r := New(NewSchema(0, 1))
	for i := int64(0); i < 50; i++ {
		r.AddValues(i%5, i%25)
	}
	first := r.FirstRows()
	if !sameList(r.FirstRows(), first) {
		t.Fatal("unchanged relation rebuilt its FirstRows list")
	}
	// Keyed kernels on another key borrow their own tables and leave
	// the list in place.
	s := New(NewSchema(0, 2))
	s.AddValues(1, 1)
	r.SemiJoin(s)
	r.Join(s)
	s.Join(r)
	if !sameList(r.FirstRows(), first) {
		t.Fatal("a keyed kernel replaced the retained list")
	}
	// Mutation invalidates: the next list is fresh.
	r.AddValues(99, 99)
	if again := r.FirstRows(); sameList(again, first) || len(again) != len(first)+1 {
		t.Fatal("the FirstRows list survived a mutation")
	}
}

func TestIndexCachingToggle(t *testing.T) {
	r := New(NewSchema(0))
	for i := int64(0); i < 40; i++ {
		r.AddValues(i % 4)
	}
	if !IndexCachingEnabled() {
		t.Fatal("caching should default to on")
	}
	SetIndexCaching(false)
	defer SetIndexCaching(true)
	if IndexCachingEnabled() {
		t.Fatal("toggle off not observed")
	}
	first := r.FirstRows()
	if sameList(r.FirstRows(), first) || r.first.Load() != nil {
		t.Fatal("FirstRows list retained while caching is off")
	}
}

// Dedup, SemiJoin and Join must produce identical outputs with the
// retained first-row list on and off (the relation-level analogue of the
// cluster-level difftest).
func TestKeyedOpsIdenticalWithCachingOff(t *testing.T) {
	mk := func() (*Relation, *Relation) {
		r := New(NewSchema(0, 1))
		s := New(NewSchema(1, 2))
		for i := int64(0); i < 60; i++ {
			r.AddValues(i%7, i%11)
			s.AddValues(i%11, i%5)
		}
		return r, s
	}
	r1, s1 := mk()
	onDedup := r1.Dedup()
	onSemi := r1.SemiJoin(s1)
	onJoin := r1.Join(s1)

	SetIndexCaching(false)
	defer SetIndexCaching(true)
	r2, s2 := mk()
	if got := r2.Dedup(); !got.Equal(onDedup) {
		t.Fatal("Dedup differs with caching off")
	}
	if got := r2.SemiJoin(s2); !got.Equal(onSemi) {
		t.Fatal("SemiJoin differs with caching off")
	}
	if got := r2.Join(s2); !got.Equal(onJoin) {
		t.Fatal("Join differs with caching off")
	}
}
