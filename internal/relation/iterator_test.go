package relation

import "testing"

// StreamJoin is Join behind an iterator.
func TestStreamJoinIsJoin(t *testing.T) {
	r := FromData(NewSchema(1, 2), []Value{1, 10, 2, 20, 1, 10, 3, 30, 2, 25}, 5)
	s := FromData(NewSchema(2, 3), []Value{10, 100, 25, 250, 99, 990}, 3)
	got, want := Materialize(StreamJoin(r.Iter(), s)), r.Join(s)
	if !got.Schema().Equal(want.Schema()) || got.Len() != want.Len() {
		t.Fatalf("StreamJoin: %v, want %v", got, want)
	}
	for i := 0; i < want.Len(); i++ {
		if !got.Row(i).Equal(want.Row(i)) {
			t.Fatalf("StreamJoin: row %d is %v, want %v", i, got.Row(i), want.Row(i))
		}
	}
}
