package hypergraph

import (
	"slices"
	"strings"
	"testing"
)

func TestParseRoundTrip(t *testing.T) {
	q, err := Parse("square", "R1(A,B,C) R2(D,E,F) R3(A,D) R4(B,E) R5(C,F)")
	if err != nil {
		t.Fatal(err)
	}
	if q.NumEdges() != 5 || q.NumAttrs() != 6 {
		t.Fatalf("edges=%d attrs=%d", q.NumEdges(), q.NumAttrs())
	}
	s := q.String()
	for _, part := range []string{"R1(A,B,C)", "R3(A,D)", "⋈"} {
		if !strings.Contains(s, part) {
			t.Fatalf("String() = %q missing %q", s, part)
		}
	}
	// Re-parse the rendered form.
	q2, err := Parse("again", q.String())
	if err != nil {
		t.Fatal(err)
	}
	if q2.NumEdges() != q.NumEdges() || q2.NumAttrs() != q.NumAttrs() {
		t.Fatal("round trip changed the query")
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"R1",
		"R1(",
		"(A)",
		"R1()",
		"R1(A,)",
		"R1)A(",
	} {
		if _, err := Parse("bad", bad); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
}

func TestEdgesWithAndDegree(t *testing.T) {
	q := SquareJoin()
	a := q.AttrID("A")
	es := q.EdgesWith(a)
	if es.Len() != 2 || !es.Contains(0) || !es.Contains(2) {
		t.Fatalf("E_A = %v", q.FormatEdges(es))
	}
	if q.Degree(a) != 2 {
		t.Fatalf("deg(A) = %d", q.Degree(a))
	}
	if q.AttrID("Z") != -1 {
		t.Fatal("unknown attr should be -1")
	}
	if q.EdgeIndex("R5") != 4 || q.EdgeIndex("nope") != -1 {
		t.Fatal("EdgeIndex wrong")
	}
}

func TestCloneIndependence(t *testing.T) {
	q := SquareJoin()
	c := q.Clone()
	c.AddEdge("X", "A", "NEW")
	if q.NumEdges() != 5 {
		t.Fatal("Clone aliases edges")
	}
	if q.AttrID("NEW") != -1 {
		t.Fatal("Clone aliases attr table")
	}
}

func TestResidual(t *testing.T) {
	q := SquareJoin()
	res := q.Residual(NewVarSet(q.AttrID("A")))
	// R3(A,D) loses A, becomes R3(D); R1 loses A.
	if res.NumEdges() != 5 {
		t.Fatalf("residual edges = %d", res.NumEdges())
	}
	r3 := res.Edge(res.EdgeIndex("R3"))
	if r3.Vars.Len() != 1 || !r3.Vars.Contains(res.AttrID("D")) {
		t.Fatalf("R3 residual = %v", res.FormatVars(r3.Vars))
	}
	// Removing all of R3's attrs drops the relation.
	res2 := q.Residual(NewVarSet(q.AttrID("A"), q.AttrID("D")))
	if res2.EdgeIndex("R3") != -1 {
		t.Fatal("R3 should vanish")
	}
}

func TestReduce(t *testing.T) {
	q := MustParse("t", "R1(A) R2(A,B) R3(A,B,C) R4(D)")
	red, absorbed := q.Reduce()
	if red.NumEdges() != 2 {
		t.Fatalf("reduced to %d edges: %s", red.NumEdges(), red)
	}
	if red.EdgeIndex("R3") == -1 || red.EdgeIndex("R4") == -1 {
		t.Fatalf("wrong survivors: %s", red)
	}
	// R1's absorption chain must terminate at R3.
	if absorbed[0] != 2 {
		t.Fatalf("absorbed[R1] = %d, want 2 (R3)", absorbed[0])
	}
	if !red.IsReduced() {
		t.Fatal("Reduce output not reduced")
	}
	if q.IsReduced() {
		t.Fatal("original should not be reduced")
	}
	// Duplicate edges: exactly one survives.
	dup := MustParse("dup", "R1(A,B) R2(A,B)")
	reddup, _ := dup.Reduce()
	if reddup.NumEdges() != 1 {
		t.Fatalf("dup reduced to %d edges", reddup.NumEdges())
	}
}

func TestConnectedComponents(t *testing.T) {
	q := MustParse("cc", "R1(A,B) R2(B,C) R3(D,E) R4(F)")
	comps := q.ConnectedComponents()
	if len(comps) != 3 {
		t.Fatalf("components = %d", len(comps))
	}
	if got := comps[0].Edges(); !slices.Equal(got, []int{0, 1}) {
		t.Fatalf("first component = %v", got)
	}
	if n := len(SquareJoin().ConnectedComponents()); n != 1 {
		t.Fatalf("square join has %d components, want 1", n)
	}
}

func TestFormatHelpers(t *testing.T) {
	q := SquareJoin()
	if got := q.FormatVars(NewVarSet(q.AttrID("A"), q.AttrID("D"))); got != "{A,D}" {
		t.Fatalf("FormatVars = %s", got)
	}
	if got := q.FormatEdges(NewEdgeSet(0, 1)); got != "{R1,R2}" {
		t.Fatalf("FormatEdges = %s", got)
	}
	if q.AttrName(999) != "x999" {
		t.Fatal("AttrName fallback wrong")
	}
}

func TestAppendShapeKey(t *testing.T) {
	key := func(q *Query) string { return string(q.AppendShapeKey(nil)) }
	base := MustParse("p", "R1(A,B) R2(B,C) R3(C,D)")
	// A pure renaming assigns the same ids, so it keeps the key.
	if key(MustParse("p-ren", "S1(W,X) S2(X,Y) S3(Y,Z)")) != key(base) {
		t.Error("pure renaming changed the key")
	}
	// Another embedding of the same shape, and reordered edges, do not.
	if key(MustParse("p-emb", "R1(B,C) R2(C,D) R3(B,A)")) == key(base) {
		t.Error("a different id embedding kept the key")
	}
	if key(MustParse("p-rot", "R2(B,C) R3(C,D) R1(A,B)")) == key(base) {
		t.Error("reordered edges kept the key")
	}
	// An unused attribute-table entry changes the key.
	extra := base.Clone()
	extra.Attr("E")
	if key(extra) == key(base) {
		t.Error("the attribute count is not part of the key")
	}
	// A set padded with zero words (a high id added and removed) keys
	// like the unpadded one.
	padded := NewQuery("pad")
	for _, e := range []VarSet{NewVarSet(0, 1), NewVarSet(1, 2), NewVarSet(2, 3)} {
		e.Add(200)
		e.Remove(200)
		padded.AddEdgeVars("R", e)
	}
	if len(padded.EdgeVars(0).words) < 2 {
		t.Fatal("test premise broken: the set kept no padding word")
	}
	if key(padded) != key(base) {
		t.Error("zero padding words split the key")
	}
	// The key appends to dst.
	if got := string(base.AppendShapeKey([]byte("x"))); got != "x"+key(base) {
		t.Errorf("AppendShapeKey did not append: %q", got)
	}
}
