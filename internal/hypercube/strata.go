package hypercube

import "coverpack/internal/relation"

// This file holds the heavy-pattern stratifier shared by the skew-aware
// algorithm here and the heavy/light algorithms of internal/cyclic.
// Patterns are bitmasks over an attribute list: bit i stands for
// attrs[i]. A row's pattern marks the attributes of its relation whose
// value is heavy; the row belongs to every global pattern that agrees
// with it on the relation's attributes, so strata partition the join
// results (a result fixes the full pattern).

// Stratum is one heavy-pattern stratum of an instance.
type Stratum struct {
	Pattern uint64
	Inst    *relation.Instance
}

// Stratify splits in's relations by heavy pattern. For each candidate
// pattern, in the given order, the stratum's relation e holds, in row
// order, the rows of in.Rel(e) whose pattern equals the candidate
// restricted to e's attributes; a candidate under which some relation
// is empty yields no stratum. Each row's pattern is computed once.
func Stratify(in *relation.Instance, attrs []int, heavy map[int]map[relation.Value]bool, candidates []uint64) []Stratum {
	ne := len(in.Relations)
	masks := make([][]uint64, ne)
	edge := make([]uint64, ne)
	for e, r := range in.Relations {
		masks[e] = HeavyMasks(r, attrs, heavy)
		for i, a := range attrs {
			if r.Schema().Has(a) {
				edge[e] |= 1 << uint(i)
			}
		}
	}
	var out []Stratum
next:
	for _, pattern := range candidates {
		rels := make([]*relation.Relation, ne)
		for e, r := range in.Relations {
			if rels[e] = selectPattern(r, masks[e], pattern&edge[e]); rels[e] == nil {
				continue next
			}
		}
		out = append(out, Stratum{Pattern: pattern, Inst: &relation.Instance{Query: in.Query, Relations: rels}})
	}
	return out
}

// HeavyMasks returns every row's heavy pattern: bit i is set when
// attrs[i] is in r's schema and the row's value of it is in
// heavy[attrs[i]].
func HeavyMasks(r *relation.Relation, attrs []int, heavy map[int]map[relation.Value]bool) []uint64 {
	type col struct {
		pos int
		bit uint64
		hv  map[relation.Value]bool
	}
	var cols []col
	for i, a := range attrs {
		if p := r.Schema().Pos(a); p >= 0 && len(heavy[a]) > 0 {
			cols = append(cols, col{pos: p, bit: 1 << uint(i), hv: heavy[a]})
		}
	}
	masks := make([]uint64, r.Len())
	if len(cols) == 0 {
		return masks
	}
	data, arity := r.Data(), r.Schema().Len()
	for i := range masks {
		row := data[i*arity : (i+1)*arity]
		var m uint64
		for _, c := range cols {
			if c.hv[row[c.pos]] {
				m |= c.bit
			}
		}
		masks[i] = m
	}
	return masks
}

// selectPattern returns r's rows whose mask equals want, in row order,
// in one exactly sized relation; nil when there are none.
func selectPattern(r *relation.Relation, masks []uint64, want uint64) *relation.Relation {
	n := 0
	for _, m := range masks {
		if m == want {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	arity := r.Schema().Len()
	src := r.Data()
	data := make([]relation.Value, 0, n*arity)
	for i, m := range masks {
		if m == want {
			data = append(data, src[i*arity:(i+1)*arity]...)
		}
	}
	return relation.FromData(r.Schema(), data, n)
}
