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

// bitCuts is a cutForker that ends a block after every row whose index
// has its bit set in cuts (bit i%len), or after every row when every is
// set — block borders anywhere, empty inputs, one block per row.
func bitCuts(workers int, cuts []byte, every bool) Forker {
	return cutForker{goForker{workers}, func(rows int) []int {
		out := []int{0}
		for i := 0; i < rows-1; i++ {
			if every || (len(cuts) > 0 && cuts[(i/8)%len(cuts)]>>(i%8)&1 == 1) {
				out = append(out, i+1)
			}
		}
		return append(out, rows)
	}}
}

// FuzzLocalKernelBlocks runs every block kernel over arbitrary tuples
// and cut points of their rows — inside runs of equal keys, at the
// borders, one block per row — on two workers and on several, and
// requires the arenas of the naive references byte for byte: a
// kernel's output may not depend on where its input is cut.
func FuzzLocalKernelBlocks(f *testing.F) {
	f.Add([]byte{}, []byte{}, []byte{}, uint8(2), uint8(3))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{2, 1, 4, 9}, []byte{0xff}, uint8(4), uint8(7))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 255, 255, 7, 7}, []byte{0, 0, 0, 1, 255, 2}, []byte{0x12}, uint8(3), uint8(0x83))
	long := make([]byte, 2*(radixMinRows+40)) // enough rows for the radix passes
	for i := range long {
		long[i] = byte(i * 37 % 251)
	}
	f.Add(long, long[:90], []byte{0x24, 0x01}, uint8(5), uint8(11))
	f.Fuzz(func(t *testing.T, rb, sb, cuts []byte, w8, domain uint8) {
		fk := bitCuts(int(w8)%7+2, cuts, domain&0x80 != 0)
		d := Value(domain%13) + 1
		r := New(NewSchema(0, 1))
		for i := 0; i+1 < len(rb); i += 2 {
			r.Add(Tuple{Value(rb[i]) % d, Value(rb[i+1]) % d})
		}
		s := New(NewSchema(1, 2))
		for i := 0; i+1 < len(sb); i += 2 {
			s.Add(Tuple{Value(sb[i]) % d, Value(sb[i+1]) % d})
		}
		check := func(label string, got, want *Relation) {
			t.Helper()
			if !sameRel(t, label, got, want) {
				t.Fatalf("%s differs from its reference under cuts %v", label, fk.(cutForker).cut(r.Len()))
			}
		}
		check("SemiJoinPar", r.SemiJoinPar(s, fk), refSemiJoin(r, s))
		filter := func(p rowPred) *Relation { return one(r, Filter{p: p, out: r.schema, f: fk}) }
		check("SelectEq", filter(rowPred{op: predEq, col: 0, v: 0}), refSelect(r, 0, 0, false))
		check("SelectGt", filter(rowPred{op: predGt, col: 1, v: d / 2}), refSelect(r, 1, d/2, true))
		set := map[Value]bool{0: true, d / 2: true}
		check("SelectIn", filter(rowPred{op: predIn, col: 1, set: set}), refSelectIn(r, 1, set, true))
		check("SelectNotIn", filter(rowPred{op: predNotIn, col: 1, set: set}), refSelectIn(r, 1, set, false))
		check("SelectEqProject", r.SelectEqProject(0, 0, 1), refProject(refSelect(r, 0, 0, false), NewSchema(1)))
		check("Degrees", r.Degrees(1, NewSchema(1, 2)), refDegrees(r, 1, 2))
		check("JoinPar", r.JoinPar(s, fk), refJoin(r, s))
		check("JoinPar swapped", s.JoinPar(r, fk), refJoin(s, r))
		check("JoinPar product", r.ProjectTo(NewSchema(0)).JoinPar(s, fk), refJoin(r.ProjectTo(NewSchema(0)), s))
		for _, pair := range [][2]*Relation{{r, s}, {s, r}, {r.ProjectTo(NewSchema(0)), s}} {
			if got, want := pair[0].JoinCount(pair[1]), pair[0].Join(pair[1]).Len(); got != int64(want) {
				t.Fatalf("JoinCount %d, Join builds %d rows", got, want)
			}
		}
		check("DedupPar", r.DedupPar(fk), refDedup(r))
		for _, pos := range [][]int{{0}, {1, 0}} {
			got := r.Clone()
			got.SortByPar(pos, fk)
			check("SortByPar", got, refSortBy(r, pos))
		}
	})
}
