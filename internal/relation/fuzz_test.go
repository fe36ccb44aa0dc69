package relation

import (
	"encoding/binary"
	"testing"
)

// FuzzTupleKeyRoundTrip checks that the fixed-width key encoding used by
// every hash exchange is invertible: Key followed by DecodeKey must
// reproduce the projected values exactly, for any tuple content
// (including negative values, which round-trip through uint64).
func FuzzTupleKeyRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{1, 2, 3}) // trailing partial value is dropped
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 8
		tup := make(Tuple, n)
		for i := 0; i < n; i++ {
			tup[i] = Value(binary.BigEndian.Uint64(data[8*i : 8*i+8]))
		}
		pos := make([]int, n)
		for i := range pos {
			pos[i] = i
		}
		key := Key(tup, pos)
		if len(key) != 8*n {
			t.Fatalf("key length %d for %d values", len(key), n)
		}
		vals, ok := DecodeKey(key)
		if !ok {
			t.Fatalf("DecodeKey rejected a Key-produced string of length %d", len(key))
		}
		if len(vals) != n {
			t.Fatalf("decoded %d values, want %d", len(vals), n)
		}
		for i := range vals {
			if vals[i] != tup[i] {
				t.Fatalf("value %d: decoded %d, want %d", i, vals[i], tup[i])
			}
		}
		if n > 0 {
			if _, ok := DecodeKey(key[:len(key)-1]); ok {
				t.Fatal("truncated key should be rejected")
			}
		}
	})
}
