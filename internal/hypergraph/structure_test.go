package hypergraph

import "testing"

func TestIsHierarchical(t *testing.T) {
	for _, tc := range []struct {
		q    *Query
		want bool
	}{
		{HierarchicalExample(), true},
		{MustParse("h2", "R1(A) R2(A,B)"), true},
		{Line3Join(), false},
		{StarJoin(2), false},
		{SquareJoin(), false},
	} {
		if got := tc.q.IsHierarchical(); got != tc.want {
			t.Errorf("%s: IsHierarchical = %v, want %v", tc.q.Name(), got, tc.want)
		}
	}
	// r-hierarchical = hierarchical after reduction: star-dual reduces
	// to a single relation, hence r-hierarchical.
	red, _ := StarDualJoin(3).Reduce()
	if red.NumEdges() != 1 || !red.IsHierarchical() {
		t.Fatalf("star-dual reduction: %s", red)
	}
}

func TestIsDegreeTwo(t *testing.T) {
	for _, tc := range []struct {
		q    *Query
		want bool
	}{
		{SquareJoin(), true},
		{SpokeJoin(5), true},
		{CycleJoin(4), true},
		{TriangleJoin(), true},
		{PathJoin(3), false}, // endpoints have degree 1
		{LoomisWhitneyJoin(4), false},
	} {
		if got := tc.q.IsDegreeTwo(); got != tc.want {
			t.Errorf("%s: IsDegreeTwo = %v, want %v", tc.q.Name(), got, tc.want)
		}
	}
}

func TestIsLoomisWhitney(t *testing.T) {
	if !LoomisWhitneyJoin(3).IsLoomisWhitney() || !LoomisWhitneyJoin(5).IsLoomisWhitney() {
		t.Fatal("LW joins not recognized")
	}
	for _, q := range []*Query{SquareJoin(), PathJoin(3), StarJoin(3)} {
		if q.IsLoomisWhitney() {
			t.Errorf("%s wrongly recognized as LW", q.Name())
		}
	}
	// Duplicate edges must not count as LW.
	dup := MustParse("dup", "R1(A,B) R2(A,B) R3(B,C)")
	if dup.IsLoomisWhitney() {
		t.Fatal("duplicate-edge query recognized as LW")
	}
}

func TestHasOddCycle(t *testing.T) {
	for _, tc := range []struct {
		q    *Query
		want bool
	}{
		{TriangleJoin(), true},
		{CycleJoin(5), true},
		{CycleJoin(4), false},
		{CycleJoin(6), false},
		{SquareJoin(), false}, // all cycles have length 4
		{SpokeJoin(4), false},
		{PathJoin(4), false},
		{MustParse("two-triangles", "R1(A,B) R2(B,C) R3(C,A) S1(D,E) S2(E,F) S3(F,D)"), true},
	} {
		if got := tc.q.HasOddCycle(); got != tc.want {
			t.Errorf("%s: HasOddCycle = %v, want %v", tc.q.Name(), got, tc.want)
		}
	}
}

func TestIsBergeAcyclic(t *testing.T) {
	for _, tc := range []struct {
		q    *Query
		want bool
	}{
		{PathJoin(4), true},
		{StarJoin(3), true},
		{TreeJoin(2), true},
		{Line3Join(), true},
		// Two relations sharing two attributes create a Berge cycle;
		// this is the paper's example of α-acyclic but not Berge.
		{MustParse("shared2", "R0(A,B,C) R1(A,B,D)"), false},
		{Figure4Join(), false},
		{TriangleJoin(), false},
		{SquareJoin(), false},
	} {
		if got := tc.q.IsBergeAcyclic(); got != tc.want {
			t.Errorf("%s: IsBergeAcyclic = %v, want %v", tc.q.Name(), got, tc.want)
		}
	}
}

func TestBergeImpliesAlpha(t *testing.T) {
	// Figure 1 inclusion: every Berge-acyclic catalog query is α-acyclic.
	for _, entry := range Catalog() {
		if entry.Query.IsBergeAcyclic() && !entry.Query.IsAcyclic() {
			t.Errorf("%s: berge-acyclic but not alpha-acyclic", entry.Query.Name())
		}
	}
}

func TestCatalogClasses(t *testing.T) {
	for _, entry := range Catalog() {
		q := entry.Query
		red, _ := q.Reduce()
		switch entry.Class {
		case "r-hierarchical":
			if !red.IsHierarchical() {
				t.Errorf("%s: expected r-hierarchical", q.Name())
			}
			if !q.IsAcyclic() {
				t.Errorf("%s: r-hierarchical must be acyclic", q.Name())
			}
		case "berge-acyclic":
			if !q.IsBergeAcyclic() {
				t.Errorf("%s: expected berge-acyclic", q.Name())
			}
			if red.IsHierarchical() {
				t.Errorf("%s: unexpectedly hierarchical", q.Name())
			}
		case "alpha-acyclic":
			if !q.IsAcyclic() || q.IsBergeAcyclic() {
				t.Errorf("%s: expected strictly alpha-acyclic", q.Name())
			}
		case "cyclic", "degree-two", "loomis-whitney", "edge-packing-provable":
			if q.IsAcyclic() {
				t.Errorf("%s: expected cyclic", q.Name())
			}
		default:
			t.Errorf("%s: unknown class %q", q.Name(), entry.Class)
		}
	}
}

func TestSpokeJoinShape(t *testing.T) {
	q := SpokeJoin(3)
	if q.NumEdges() != 5 || q.NumAttrs() != 6 {
		t.Fatalf("spoke-3: edges=%d attrs=%d", q.NumEdges(), q.NumAttrs())
	}
	if !q.IsDegreeTwo() || q.HasOddCycle() {
		t.Fatal("spoke-3 structure wrong")
	}
	if !q.IsReduced() {
		t.Fatal("spoke join should be reduced")
	}
}

func TestKeepEdges(t *testing.T) {
	q := SquareJoin()
	sub := q.KeepEdges(NewEdgeSet(0, 2))
	if sub.NumEdges() != 2 || sub.EdgeIndex("R1") == -1 || sub.EdgeIndex("R3") == -1 {
		t.Fatalf("KeepEdges = %s", sub)
	}
}

func TestConstructorPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"SpokeJoin":         func() { SpokeJoin(1) },
		"PathJoin":          func() { PathJoin(0) },
		"CycleJoin":         func() { CycleJoin(2) },
		"StarJoin":          func() { StarJoin(0) },
		"StarDualJoin":      func() { StarDualJoin(0) },
		"LoomisWhitneyJoin": func() { LoomisWhitneyJoin(2) },
		"TreeJoin":          func() { TreeJoin(0) },
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

func TestAcyclicityHierarchy(t *testing.T) {
	// Footnote 5: berge ⇒ α on the whole catalog.
	for _, e := range Catalog() {
		q := e.Query
		if q.IsBergeAcyclic() && !q.IsAcyclic() {
			t.Errorf("%s: berge-acyclic but not alpha-acyclic", q.Name())
		}
	}
}
