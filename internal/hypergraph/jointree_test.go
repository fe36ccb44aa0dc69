package hypergraph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestGYOAcyclicBasics(t *testing.T) {
	for _, tc := range []struct {
		q       *Query
		acyclic bool
	}{
		{PathJoin(1), true},
		{PathJoin(3), true},
		{PathJoin(7), true},
		{StarJoin(4), true},
		{StarDualJoin(4), true},
		{Figure4Join(), true},
		{TreeJoin(3), true},
		{SemiJoinExample(), true},
		{TriangleJoin(), false},
		{CycleJoin(4), false},
		{CycleJoin(7), false},
		{SquareJoin(), false},
		{SpokeJoin(4), false},
		{LoomisWhitneyJoin(4), false},
	} {
		tree, ok := GYO(tc.q)
		if ok != tc.acyclic {
			t.Errorf("%s: acyclic = %v, want %v", tc.q.Name(), ok, tc.acyclic)
			continue
		}
		if ok {
			if err := tree.Validate(); err != nil {
				t.Errorf("%s: invalid join tree: %v\n%s", tc.q.Name(), err, tree)
			}
		}
		if tc.q.IsAcyclic() != tc.acyclic {
			t.Errorf("%s: IsAcyclic disagrees", tc.q.Name())
		}
	}
}

func TestJoinTreeForestForDisconnected(t *testing.T) {
	q := MustParse("cc", "R1(A,B) R2(B,C) R3(D,E)")
	tree, ok := GYO(q)
	if !ok {
		t.Fatal("should be acyclic")
	}
	roots := tree.Roots()
	if len(roots) != 2 {
		t.Fatalf("roots = %v, want one per component", roots)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestJoinTreeNavigation(t *testing.T) {
	q := Figure4Join()
	tree, ok := GYO(q)
	if !ok {
		t.Fatal("figure 4 query must be acyclic")
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	roots := tree.Roots()
	if len(roots) != 1 {
		t.Fatalf("roots = %v", roots)
	}
	if leaves := tree.Leaves(); len(leaves) < 2 {
		t.Fatalf("leaves = %v", leaves)
	}
}

func TestConnectedComponentsOn(t *testing.T) {
	// Reproduces Example 3.2: S1 = {e1,e3,e7} is connected in the
	// hypergraph (via A) but splits into three components on the tree.
	q := Figure4Join()
	tree, _ := GYO(q)
	e := func(name string) int { return q.EdgeIndex(name) }
	s1 := NewEdgeSet(e("e1"), e("e3"), e("e7"))
	comps := tree.ConnectedComponentsOn(s1)
	if len(comps) != 3 {
		t.Fatalf("T[S1] has %d components, want 3\n%s", len(comps), tree)
	}
	// Hypergraph connectivity of the same set is a single component.
	if n := len(q.KeepEdges(s1).ConnectedComponents()); n != 1 {
		t.Fatalf("hypergraph components of S1 = %d, want 1", n)
	}
}

func TestRemoveEdges(t *testing.T) {
	q := PathJoin(4)
	tree, _ := GYO(q)
	// Remove one interior node; its children must re-root past it.
	var interior int = -1
	for i := 0; i < q.NumEdges(); i++ {
		if tree.Parent[i] >= 0 && len(tree.Children(i)) > 0 {
			interior = i
			break
		}
	}
	if interior == -1 {
		t.Skip("no interior node in this tree shape")
	}
	rest := tree.RemoveEdges(NewEdgeSet(interior))
	if rest.Parent[interior] != -2 {
		t.Fatal("removed edge should be marked")
	}
	for i := range rest.Parent {
		if i != interior && rest.Parent[i] == interior {
			t.Fatal("child still points at removed edge")
		}
	}
}

// Property: random acyclic queries built by growing a tree always pass
// GYO with a validating join tree; adding a chord that closes a cycle of
// binary relations makes them cyclic.
func TestPropertyGYORandomTrees(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(3))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		q := NewQuery("rand-tree")
		// Grow: relation i joins attribute of a previous relation to a
		// fresh attribute — always acyclic (a tree of binary edges).
		attrs := []string{"V0"}
		for i := 1; i <= n; i++ {
			from := attrs[rng.Intn(len(attrs))]
			to := "V" + itoa(i)
			attrs = append(attrs, to)
			q.AddEdge("R"+itoa(i), from, to)
		}
		tree, ok := GYO(q)
		if !ok {
			t.Logf("seed %d: tree query reported cyclic", seed)
			return false
		}
		if err := tree.Validate(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if len(tree.Parent) != q.NumEdges() {
			return false
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: cycles of binary relations of length >= 3 are always cyclic.
func TestPropertyCyclesAreCyclic(t *testing.T) {
	for k := 3; k <= 10; k++ {
		if CycleJoin(k).IsAcyclic() {
			t.Fatalf("cycle-%d reported acyclic", k)
		}
	}
}

// GYOVars on bare attribute sets: forests, 0-ary sets, duplicates and
// cyclic lists, with the deterministic lowest-index choices spelled out.
func TestGYOVars(t *testing.T) {
	vs := NewVarSet
	for _, tc := range []struct {
		name   string
		sets   []VarSet
		parent []int // nil: cyclic
	}{
		{"empty list", nil, []int{}},
		{"single", []VarSet{vs(0, 1)}, []int{-1}},
		{"forest", []VarSet{vs(0, 1), vs(1, 2), vs(3, 4)}, []int{1, -1, -1}},
		{"0-ary is its own root", []VarSet{vs(0, 1), vs(), vs(1, 2)}, []int{2, -1, -1}},
		{"only 0-ary", []VarSet{vs(), vs()}, []int{-1, -1}},
		{"duplicates chain to the last", []VarSet{vs(0, 1), vs(0, 1), vs(0, 1)}, []int{1, 2, -1}},
		{"contained", []VarSet{vs(0), vs(0, 1, 2), vs(1, 2)}, []int{1, -1, 1}},
		{"triangle", []VarSet{vs(0, 1), vs(1, 2), vs(0, 2)}, nil},
		{"triangle beside a tree", []VarSet{vs(5, 6), vs(0, 1), vs(1, 2), vs(0, 2)}, nil},
		{"square", []VarSet{vs(0, 1), vs(1, 2), vs(2, 3), vs(3, 0)}, nil},
	} {
		in := make([]VarSet, len(tc.sets))
		for i, s := range tc.sets {
			in[i] = s.Clone()
		}
		parent, ok := GYOVars(in)
		if ok != (tc.parent != nil) {
			t.Errorf("%s: acyclic = %v", tc.name, ok)
			continue
		}
		if ok && !slices.Equal(parent, tc.parent) {
			t.Errorf("%s: parent = %v, want %v", tc.name, parent, tc.parent)
		}
		for i := range in {
			if !in[i].Equal(tc.sets[i]) {
				t.Errorf("%s: input set %d modified to %v", tc.name, i, in[i])
			}
		}
	}
}

// The parent arrays GYO returned for the catalog before it became a
// wrapper over GYOVars; every join tree downstream (core's choices,
// plan caches, golden reports) depends on them staying put.
func TestGYOCatalogParentsPinned(t *testing.T) {
	want := map[string][]int{
		"hierarchical":     {1, -1},
		"semijoin-example": {1, -1, 1},
		"stardual-3":       {-1, 0, 0, 0},
		"line3":            {1, -1, 1},
		"path-4":           {1, 2, -1, 2},
		"star-3":           {-1, 0, 0, 0},
		"tree-2":           {1, -1, 0, 0, 1, 1},
		"figure4":          {5, 0, 0, 0, 0, -1, 5, 5},
		"triangle":         nil,
		"cycle-4":          nil,
		"cycle-6":          nil,
		"lw-4":             nil,
		"square":           nil,
		"spoke-4":          nil,
		"spoke-5":          nil,
	}
	cat := Catalog()
	if len(cat) != len(want) {
		t.Fatalf("catalog has %d queries, pinned %d", len(cat), len(want))
	}
	for _, e := range cat {
		p, pinned := want[e.Query.Name()]
		if !pinned {
			t.Errorf("%s: no pinned parent array", e.Query.Name())
			continue
		}
		tree, ok := GYO(e.Query)
		if ok != (p != nil) {
			t.Errorf("%s: acyclic = %v", e.Query.Name(), ok)
			continue
		}
		if ok && !slices.Equal(tree.Parent, p) {
			t.Errorf("%s: parent = %v, want %v", e.Query.Name(), tree.Parent, p)
		}
	}
}
