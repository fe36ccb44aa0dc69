package relation

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// Naive references for the block kernels. They share no code with the
// kernels — no hash table, no index, no permutation, no position maps —
// and pin the output order contract as well as the content: every
// kernel test compares arenas byte for byte.

// refAgree reports whether rt (under rs) and st (under ss) hold the
// same value on every attribute the two schemas share.
func refAgree(rs Schema, rt Tuple, ss Schema, st Tuple) bool {
	for i, a := range rs.Attrs() {
		if j := ss.Pos(a); j >= 0 && rt[i] != st[j] {
			return false
		}
	}
	return true
}

// refJoin is the nested-loop natural join in Join's order: the outer
// loop is the larger relation (r on a tie, and always r for a product),
// the inner loop the other one, both in row order.
func refJoin(r, s *Relation) *Relation {
	out := New(r.Schema().Union(s.Schema()))
	outer, inner := r, s
	if len(r.Schema().Common(s.Schema())) > 0 && r.Len() < s.Len() {
		outer, inner = s, r
	}
	for i := 0; i < outer.Len(); i++ {
		for j := 0; j < inner.Len(); j++ {
			ot, it := outer.Row(i), inner.Row(j)
			if !refAgree(outer.Schema(), ot, inner.Schema(), it) {
				continue
			}
			row := make(Tuple, out.Schema().Len())
			for k, a := range out.Schema().Attrs() {
				if p := outer.Schema().Pos(a); p >= 0 {
					row[k] = ot[p]
				} else {
					row[k] = it[inner.Schema().Pos(a)]
				}
			}
			out.Add(row)
		}
	}
	return out
}

// refSemiJoin keeps, in order, the rows of r that agree with some row
// of s (all of them when nothing is shared and s is nonempty).
func refSemiJoin(r, s *Relation) *Relation {
	out := New(r.Schema())
	for i := 0; i < r.Len(); i++ {
		for j := 0; j < s.Len(); j++ {
			if refAgree(r.Schema(), r.Row(i), s.Schema(), s.Row(j)) {
				out.Add(r.Row(i))
				break
			}
		}
	}
	return out
}

// refDedup keeps the first occurrence of every distinct row, in order.
func refDedup(r *Relation) *Relation {
	out := New(r.Schema())
	for i := 0; i < r.Len(); i++ {
		dup := false
		for j := 0; j < out.Len() && !dup; j++ {
			dup = slices.Equal(out.Row(j), r.Row(i))
		}
		if !dup {
			out.Add(r.Row(i))
		}
	}
	return out
}

// refSelect keeps, in order, the rows whose value at column col is == v
// (> v when gt).
func refSelect(r *Relation, col int, v Value, gt bool) *Relation {
	out := New(r.Schema())
	for i := 0; i < r.Len(); i++ {
		if x := r.Row(i)[col]; (gt && x > v) || (!gt && x == v) {
			out.Add(r.Row(i))
		}
	}
	return out
}

// refSelectIn keeps, in order, the rows whose value at column col is in
// set (not in set when !in).
func refSelectIn(r *Relation, col int, set map[Value]bool, in bool) *Relation {
	out := New(r.Schema())
	for i := 0; i < r.Len(); i++ {
		if set[r.Row(i)[col]] == in {
			out.Add(r.Row(i))
		}
	}
	return out
}

// refProject copies every row's columns of schema, in row order.
func refProject(r *Relation, schema Schema) *Relation {
	out := New(schema)
	for i := 0; i < r.Len(); i++ {
		row := make(Tuple, 0, schema.Len())
		for j, a := range r.Schema().Attrs() {
			if schema.Has(a) {
				row = append(row, r.Row(i)[j])
			}
		}
		out.Add(row)
	}
	return out
}

// refDegrees counts the rows holding each value of attribute a, one
// (a, countAttr) row per value in first-seen order.
func refDegrees(r *Relation, a, countAttr int) *Relation {
	col := r.Schema().Pos(a)
	var vals, cnts []Value
	for i := 0; i < r.Len(); i++ {
		k := slices.Index(vals, r.Row(i)[col])
		if k < 0 {
			vals, cnts = append(vals, r.Row(i)[col]), append(cnts, 0)
			k = len(vals) - 1
		}
		cnts[k]++
	}
	out := New(NewSchema(a, countAttr))
	for k := range vals {
		if a < countAttr {
			out.AddValues(vals[k], cnts[k])
		} else {
			out.AddValues(cnts[k], vals[k])
		}
	}
	return out
}

// refCompare orders tuples on the given positions.
func refCompare(a, b Tuple, pos []int) int {
	for _, p := range pos {
		if a[p] != b[p] {
			if a[p] < b[p] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// refSortBy is the stable sort of the materialized tuples.
func refSortBy(r *Relation, pos []int) *Relation {
	ts := make([]Tuple, r.Len())
	for i := range ts {
		ts[i] = r.Row(i).Clone()
	}
	slices.SortStableFunc(ts, func(a, b Tuple) int { return refCompare(a, b, pos) })
	return FromTuples(r.Schema(), ts)
}

// refMergeRuns merges the sorted runs one row at a time: the smallest
// head wins, the earliest run on a tie.
func refMergeRuns(r *Relation, runLens []int, pos []int) *Relation {
	next := make([]int, len(runLens))
	end := make([]int, len(runLens))
	start := 0
	for i, n := range runLens {
		next[i], end[i] = start, start+n
		start += n
	}
	out := New(r.Schema())
	for {
		win := -1
		for i := range next {
			if next[i] < end[i] && (win < 0 || refCompare(r.Row(next[i]), r.Row(next[win]), pos) < 0) {
				win = i
			}
		}
		if win < 0 {
			return out
		}
		out.Add(r.Row(next[win]))
		next[win]++
	}
}

// SelectEqProject and Degrees against the naive references, on both
// sides of the stack buffers (smallRows, smallDedupCutoff) and well
// past them.
func TestSelectEqProjectAndDegreesMatchReferences(t *testing.T) {
	for _, rows := range []int{0, 1, 32, 33, 64, 65, 257, 10000} {
		t.Run(fmt.Sprintf("rows=%d", rows), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(rows)))
			r := randomRel(rng, NewSchema(0, 1, 2), rows, 3+int64(rows)/4)
			for _, v := range []Value{0, 1, -1} {
				want := refProject(refSelect(r, 1, v, false), NewSchema(0, 2))
				if !sameRel(t, "SelectEqProject", r.SelectEqProject(1, v, 2, 0), want) {
					t.Fatalf("SelectEqProject, v=%d", v)
				}
			}
			if !sameRel(t, "SelectEqProject onto nothing", r.SelectEqProject(1, 0), refProject(refSelect(r, 1, 0, false), NewSchema())) {
				t.Fatal("SelectEqProject onto no attributes")
			}
			// The count attribute on either side of the value attribute.
			if !sameRel(t, "Degrees", r.Degrees(1, NewSchema(1, 5)), refDegrees(r, 1, 5)) || !sameRel(t, "Degrees", r.Degrees(2, NewSchema(-1, 2)), refDegrees(r, 2, -1)) {
				t.Fatal("Degrees")
			}
		})
	}
}

// SelectEqProject checks the selection attribute first and then every
// projection attribute, even when no row survives the selection.
func TestSelectEqProjectPanicOrder(t *testing.T) {
	panicOf := func(f func()) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		f()
		return ""
	}
	for _, r := range []*Relation{New(NewSchema(0, 1)), FromData(NewSchema(0, 1), []Value{1, 2}, 1)} {
		if msg := panicOf(func() { r.SelectEqProject(7, 0, 9) }); !strings.Contains(msg, "SelectEq attribute 7") {
			t.Fatalf("missing selection and projection attributes: panic %q, want the selection's", msg)
		}
		if msg := panicOf(func() { r.SelectEqProject(0, 99, 1, 9) }); !strings.Contains(msg, "Project attribute 9") {
			t.Fatalf("missing projection attribute, nothing selected: panic %q, want the projection's", msg)
		}
	}
}
