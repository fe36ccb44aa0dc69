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
	for _, m := range []struct {
		name   string
		mutate func()
	}{
		{"Add", func() { r.Add(Tuple{99, 99}) }},
		{"AddValues", func() { r.AddValues(97, 97) }},
		{"SortBy", func() { r.SortBy([]int{1}) }},
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

// Dedup, SemiJoin and Join must produce the same outputs whether or not
// the relation's first-row list is retained: each is checked against a
// fresh copy, whose list is built by the call itself, and Dedup's rows
// against that copy's FirstRows.
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
	r1.FirstRows() // retained from here on
	cachedDedup := r1.Dedup()
	if r1.first.Load() == nil {
		t.Fatal("FirstRows list not retained")
	}
	r2, s2 := mk()
	fresh := r2.Clone().FirstRows()
	if !slices.Equal(r1.FirstRows(), fresh) {
		t.Fatal("retained FirstRows differs from a fresh copy's")
	}
	want := New(r2.Schema())
	for _, i := range fresh {
		want.Add(r2.Row(int(i)))
	}
	if !cachedDedup.Equal(want) {
		t.Fatal("Dedup over a retained list differs from a fresh copy's first rows")
	}
	if got := r1.SemiJoin(s1); !got.Equal(r2.Clone().SemiJoin(s2)) {
		t.Fatal("SemiJoin differs over a retained list")
	}
	if got := r1.Join(s1); !got.Equal(r2.Clone().Join(s2)) {
		t.Fatal("Join differs over a retained list")
	}
}
