package relation

import (
	"testing"
)

func TestSchemaBasics(t *testing.T) {
	s := NewSchema(3, 1, 2, 1)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if got := s.Attrs(); got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("Attrs = %v", got)
	}
	if s.Pos(2) != 1 || s.Pos(9) != -1 {
		t.Fatal("Pos wrong")
	}
	if !s.Has(3) || s.Has(0) {
		t.Fatal("Has wrong")
	}
	if !s.Equal(NewSchema(1, 2, 3)) || s.Equal(NewSchema(1, 2)) {
		t.Fatal("Equal wrong")
	}
	if got := s.Common(NewSchema(2, 3, 4)); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("Common = %v", got)
	}
	if got := s.Union(NewSchema(0, 4)); got.Len() != 5 {
		t.Fatalf("Union = %v", got)
	}
	if s.String() != "(1,2,3)" {
		t.Fatalf("String = %s", s.String())
	}
}

func TestRelationBasics(t *testing.T) {
	r := New(NewSchema(0, 1))
	r.AddValues(1, 10)
	r.AddValues(2, 20)
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
	if r.Get(r.Tuples()[0], 1) != 10 {
		t.Fatal("Get wrong")
	}
	c := r.Clone()
	c.AddValues(3, 30)
	if r.Len() != 2 {
		t.Fatal("Clone aliases")
	}
	o := New(NewSchema(0, 1))
	o.AddValues(2, 20)
	o.AddValues(1, 10)
	if !r.Equal(o) {
		t.Fatal("Equal should be order-insensitive")
	}
	o.AddValues(9, 90)
	if r.Equal(o) {
		t.Fatal("Equal wrong on different sizes")
	}
	if s := r.String(); s == "" {
		t.Fatal("String empty")
	}
}

func TestArityPanics(t *testing.T) {
	r := New(NewSchema(0, 1))
	for name, f := range map[string]func(){
		"Add":      func() { r.Add(Tuple{1}) },
		"Get":      func() { r.AddValues(1, 2); r.Get(r.Tuples()[0], 7) },
		"Project":  func() { one(r.View, ProjectStep(r.schema, NewSchema(9))) },
		"SelectEq": func() { one(r.View, SelectEqStep(r.schema, 9, 0)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestProjectSelectDedup(t *testing.T) {
	r := New(NewSchema(0, 1))
	r.AddValues(1, 10)
	r.AddValues(1, 20)
	r.AddValues(2, 10)
	p := one(r.View, ProjectStep(r.schema, NewSchema(0)))
	if p.Len() != 3 {
		t.Fatalf("Project is multiset, len = %d", p.Len())
	}
	if d := p.Dedup(); d.Len() != 2 {
		t.Fatalf("Dedup len = %d", d.Len())
	}
	if s := one(r.View, SelectEqStep(r.schema, 0, 1)); s.Len() != 2 {
		t.Fatalf("SelectEq len = %d", s.Len())
	}
	if s := one(r.View, SelectGtStep(r.schema, 1, 10)); s.Len() != 1 || s.Row(0)[1] != 20 {
		t.Fatalf("SelectGt = %v", s)
	}
	dv := r.DistinctValues(0)
	if len(dv) != 2 || !dv[1] || !dv[2] {
		t.Fatalf("DistinctValues = %v", dv)
	}
}

func TestSemiJoin(t *testing.T) {
	r := New(NewSchema(0, 1))
	r.AddValues(1, 10)
	r.AddValues(2, 20)
	r.AddValues(3, 30)
	s := New(NewSchema(1, 2))
	s.AddValues(10, 100)
	s.AddValues(30, 300)

	sj := r.SemiJoin(s)
	if sj.Len() != 2 {
		t.Fatalf("SemiJoin len = %d", sj.Len())
	}
	// Disjoint schemas: semi-join keeps everything iff other nonempty.
	d := New(NewSchema(5))
	if got := r.SemiJoin(d); got.Len() != 0 {
		t.Fatal("SemiJoin with empty disjoint relation should be empty")
	}
	d.AddValues(1)
	if got := r.SemiJoin(d); got.Len() != 3 {
		t.Fatal("SemiJoin with nonempty disjoint relation should keep all")
	}
}

func TestJoinNatural(t *testing.T) {
	// R(A,B) ⋈ S(B,C).
	r := New(NewSchema(0, 1))
	r.AddValues(1, 10)
	r.AddValues(2, 10)
	r.AddValues(3, 30)
	s := New(NewSchema(1, 2))
	s.AddValues(10, 100)
	s.AddValues(10, 101)
	s.AddValues(40, 400)

	j := r.Join(s)
	if j.Len() != 4 { // {1,2}×{100,101}
		t.Fatalf("Join len = %d", j.Len())
	}
	if !j.Schema().Equal(NewSchema(0, 1, 2)) {
		t.Fatalf("Join schema = %v", j.Schema())
	}
	// Check one row end to end.
	want := New(NewSchema(0, 1, 2))
	want.AddValues(1, 10, 100)
	want.AddValues(1, 10, 101)
	want.AddValues(2, 10, 100)
	want.AddValues(2, 10, 101)
	if !j.Equal(want) {
		t.Fatalf("Join = %v, want %v", j, want)
	}
}

func TestJoinCartesian(t *testing.T) {
	r := New(NewSchema(0))
	r.AddValues(1)
	r.AddValues(2)
	s := New(NewSchema(1))
	s.AddValues(10)
	s.AddValues(20)
	s.AddValues(30)
	j := r.Join(s)
	if j.Len() != 6 {
		t.Fatalf("Cartesian len = %d", j.Len())
	}
}

func TestJoinBuildSideSymmetry(t *testing.T) {
	// Join must be symmetric regardless of which side builds the table.
	big := New(NewSchema(0, 1))
	for i := int64(0); i < 50; i++ {
		big.AddValues(i%5, i)
	}
	small := New(NewSchema(0))
	small.AddValues(1)
	small.AddValues(3)
	ab := big.Join(small)
	ba := small.Join(big)
	if !ab.Equal(ba) {
		t.Fatal("join not symmetric")
	}
}

func TestKeyEncoding(t *testing.T) {
	a := Tuple{1, 2, 3}
	b := Tuple{1, 2, 4}
	if Key(a, []int{0, 1}) != Key(b, []int{0, 1}) {
		t.Fatal("equal prefixes must share keys")
	}
	if Key(a, []int{0, 2}) == Key(b, []int{0, 2}) {
		t.Fatal("different values must differ")
	}
	// Negative values must not collide with positives.
	c := Tuple{-1}
	d := Tuple{1}
	if Key(c, []int{0}) == Key(d, []int{0}) {
		t.Fatal("sign collision")
	}
}

func TestFromTuples(t *testing.T) {
	schema := NewSchema(0, 1)
	ts := []Tuple{{1, 2}, {3, 4}}
	r := FromTuples(schema, ts)
	if r.Len() != 2 || !r.Schema().Equal(schema) {
		t.Fatalf("FromTuples: len %d schema %v", r.Len(), r.Schema())
	}
	// The arena copies the inputs: mutating the source tuples afterwards
	// must not reach into the relation.
	ts[0][0] = 99
	if r.Row(0)[0] != 1 {
		t.Fatalf("FromTuples aliased its input: row 0 = %v", r.Row(0))
	}
}

func TestFromDataZeroCopyAndValidation(t *testing.T) {
	schema := NewSchema(0, 1)
	data := []Value{1, 2, 3, 4}
	r := FromData(schema, data, 2)
	if r.Len() != 2 || r.Row(1)[0] != 3 {
		t.Fatalf("FromData: len %d row1 %v", r.Len(), r.Row(1))
	}
	// Zero-copy: the relation owns the passed arena.
	data[0] = 42
	if r.Row(0)[0] != 42 {
		t.Fatal("FromData must wrap the arena without copying")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("mismatched arena length should panic")
			}
		}()
		FromData(schema, []Value{1, 2, 3}, 2)
	}()
}

func TestRowViewInvalidationContract(t *testing.T) {
	r := New(NewSchema(0, 1))
	r.Grow(2)
	r.AddValues(1, 2)
	row := r.Row(0)
	// Appends within reserved capacity keep existing views readable.
	r.AddValues(3, 4)
	if row[0] != 1 || row[1] != 2 {
		t.Fatalf("view corrupted by in-capacity append: %v", row)
	}
	// A view is capped at its row boundary: appending through it must
	// not scribble over the next row.
	_ = append(row, 99)
	if r.Row(1)[0] != 3 {
		t.Fatalf("append through a view corrupted the next row: %v", r.Row(1))
	}
}

func TestPositionsAndGrow(t *testing.T) {
	schema := NewSchema(10, 20, 30)
	pos := schema.Positions([]int{30, 10})
	if len(pos) != 2 || pos[0] != 2 || pos[1] != 0 {
		t.Fatalf("Positions = %v", pos)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("unknown attribute should panic")
			}
		}()
		schema.Positions([]int{99})
	}()
	r := New(schema)
	r.Grow(100)
	if r.Len() != 0 {
		t.Fatalf("Grow changed Len to %d", r.Len())
	}
	r.Add(Tuple{1, 2, 3})
	if r.Len() != 1 {
		t.Fatalf("Len = %d after Add", r.Len())
	}
}

// TestSchemaAllocs: a schema is its sorted attribute list and nothing
// else, so building one and merging two are one allocation each.
func TestSchemaAllocs(t *testing.T) {
	a, b := NewSchema(0, 2, 4), NewSchema(1, 2, 3)
	if n := testing.AllocsPerRun(100, func() { _ = NewSchema(3, 1, 2) }); n != 1 {
		t.Errorf("NewSchema: %v allocations, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = a.Union(b) }); n != 1 {
		t.Errorf("Union: %v allocations, want 1", n)
	}
	if got := a.Union(b); !got.Equal(NewSchema(0, 1, 2, 3, 4)) {
		t.Errorf("Union = %v", got)
	}
	wide := NewSchema(20, 3, 17, 5, 11, 9, 1, 14, 7, 12)
	for i, a := range wide.attrs {
		if wide.Pos(a) != i || wide.Pos(a+100) != -1 {
			t.Fatalf("Pos(%d) = %d, want %d", a, wide.Pos(a), i)
		}
	}
}
