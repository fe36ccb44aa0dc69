package relation

import (
	"slices"
	"testing"
)

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
	// Every mutator drops the retained list; the next list is fresh and
	// lists the mutated content.
	other := New(NewSchema(0, 1))
	other.AddValues(98, 98)
	for _, m := range []struct {
		name   string
		mutate func()
	}{
		{"Add", func() { r.Add(Tuple{99, 99}) }},
		{"AddValues", func() { r.AddValues(97, 97) }},
		{"Append", func() { r.Append(other) }},
		{"SortBy", func() { r.SortBy([]int{1}) }},
		{"Sort", func() { r.Sort() }},
	} {
		before := r.FirstRows()
		if !sameList(r.FirstRows(), before) {
			t.Fatalf("%s: unchanged relation rebuilt its FirstRows list", m.name)
		}
		m.mutate()
		if r.first.Load() != nil {
			t.Fatalf("%s: the FirstRows list survived the mutation", m.name)
		}
		again := r.FirstRows()
		if sameList(again, before) || !slices.Equal(again, r.firstRows()) {
			t.Fatalf("%s: stale FirstRows list after the mutation", m.name)
		}
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
