package hypergraph

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

// relabeled renders q with attribute ids renamed through perm (attr id
// a becomes "V<perm[a]>"), relations renamed with the given prefix, and
// edges listed in edgeOrder, then re-parses it — an isomorphic copy
// whose names, attribute-id assignment and edge order all differ.
func relabeled(t testing.TB, q *Query, perm []int, edgeOrder []int, prefix string) *Query {
	t.Helper()
	var parts []string
	for _, e := range edgeOrder {
		attrs := q.EdgeVars(e).Attrs()
		names := make([]string, len(attrs))
		for i, a := range attrs {
			names[i] = fmt.Sprintf("V%d", perm[a])
		}
		parts = append(parts, fmt.Sprintf("%s%d(%s)", prefix, e, strings.Join(names, ",")))
	}
	return MustParse(q.Name()+"-relabeled", strings.Join(parts, " "))
}

// identityPerm and reversePerm are the two deterministic relabelings
// the table tests use; the fuzz target explores arbitrary ones.
func identityPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

func reversePerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = n - 1 - i
	}
	return p
}

func reverseOrder(m int) []int {
	o := make([]int, m)
	for i := range o {
		o[i] = m - 1 - i
	}
	return o
}

// assertSameKey canonicalizes both queries and requires equal keys plus
// structurally valid permutations on each.
func assertSameKey(t *testing.T, a, b *Query) {
	t.Helper()
	ca, cb := Canon(a), Canon(b)
	if ca == nil || cb == nil {
		t.Fatalf("Canon returned nil for %s or %s", a.Name(), b.Name())
	}
	if ca.Key != cb.Key {
		t.Errorf("isomorphic queries got different keys:\n  %s: %s\n  %s: %s",
			a.Name(), ca.Key, b.Name(), cb.Key)
	}
	assertValidForm(t, a, ca)
	assertValidForm(t, b, cb)
}

// assertValidForm checks the canonical form's structural contract: the
// vertex permutation is a bijection of the occurring attributes onto
// 0..k-1, the edge permutation a bijection onto 0..m-1, and applying
// them to the query reproduces the key's edge encoding exactly.
func assertValidForm(t *testing.T, q *Query, cf *CanonicalForm) {
	t.Helper()
	occurring := q.AllVars().Attrs()
	seenV := make(map[int]bool)
	for _, a := range occurring {
		c := cf.VertexPerm[a]
		if c < 0 || c >= len(occurring) || seenV[c] {
			t.Fatalf("%s: VertexPerm not a bijection: attr %d -> %d (%v)", q.Name(), a, c, cf.VertexPerm)
		}
		seenV[c] = true
	}
	seenE := make(map[int]bool)
	for e := 0; e < q.NumEdges(); e++ {
		c := cf.EdgePerm[e]
		if c < 0 || c >= q.NumEdges() || seenE[c] {
			t.Fatalf("%s: EdgePerm not a bijection: edge %d -> %d (%v)", q.Name(), e, c, cf.EdgePerm)
		}
		seenE[c] = true
	}
	// Rebuild the canonical encoding from the permutations and compare
	// with the key.
	canonEdges := make([][]int, q.NumEdges())
	for e := 0; e < q.NumEdges(); e++ {
		vs := make([]int, 0, q.EdgeVars(e).Len())
		for _, a := range q.EdgeVars(e).Attrs() {
			vs = append(vs, cf.VertexPerm[a])
		}
		sort.Ints(vs)
		canonEdges[cf.EdgePerm[e]] = vs
	}
	var b strings.Builder
	fmt.Fprintf(&b, "v%d;e%d", len(occurring), q.NumEdges())
	for _, vs := range canonEdges {
		b.WriteByte(';')
		for i, v := range vs {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", v)
		}
	}
	if got := b.String(); got != cf.Key {
		t.Fatalf("%s: permutations do not reproduce the key:\n  rebuilt: %s\n  key:     %s", q.Name(), got, cf.Key)
	}
}

func TestCanonSingleEdge(t *testing.T) {
	a := MustParse("one", "R(A,B,C)")
	b := MustParse("one2", "S(Z,X,Y)")
	assertSameKey(t, a, b)
	if CanonKey(a) == CanonKey(MustParse("one3", "R(A,B)")) {
		t.Error("edges of different arity share a key")
	}
}

func TestCanonDuplicateEdges(t *testing.T) {
	a := MustParse("dup", "R(A,B) S(A,B) T(B,C)")
	b := relabeled(t, a, reversePerm(a.NumAttrs()), reverseOrder(a.NumEdges()), "E")
	assertSameKey(t, a, b)
	// Not isomorphic to the duplicate-free path with the same edge
	// count.
	if CanonKey(a) == CanonKey(MustParse("path", "R(A,B) S(B,C) T(C,D)")) {
		t.Error("duplicate-edge query shares a key with a simple path")
	}
}

func TestCanonDisconnected(t *testing.T) {
	a := MustParse("disc", "R(A,B) S(C,D)")
	b := MustParse("disc2", "R(C,D) S(A,B)")
	assertSameKey(t, a, b)
	if CanonKey(a) == CanonKey(MustParse("conn", "R(A,B) S(B,C)")) {
		t.Error("disconnected pair shares a key with the connected path")
	}
}

func TestCanonCycles(t *testing.T) {
	keys := make(map[string]int)
	for k := 3; k <= 6; k++ {
		q := CycleJoin(k)
		cf := Canon(q)
		if cf == nil {
			t.Fatalf("cycle%d: Canon returned nil", k)
		}
		assertValidForm(t, q, cf)
		if prev, dup := keys[cf.Key]; dup {
			t.Errorf("cycle%d shares a key with cycle%d", k, prev)
		}
		keys[cf.Key] = k
		// Rotations and reversals of an automorphism-heavy shape must
		// land on the same key.
		assertSameKey(t, q, relabeled(t, q, reversePerm(q.NumAttrs()), reverseOrder(q.NumEdges()), "C"))
		rot := make([]int, q.NumAttrs())
		for i := range rot {
			rot[i] = (i + 1) % len(rot)
		}
		assertSameKey(t, q, relabeled(t, q, rot, identityPerm(q.NumEdges()), "D"))
	}
}

func TestCanonCliques(t *testing.T) {
	for n := 3; n <= 5; n++ {
		q := LoomisWhitneyJoin(n)
		assertSameKey(t, q, relabeled(t, q, reversePerm(q.NumAttrs()), reverseOrder(q.NumEdges()), "L"))
	}
	if CanonKey(LoomisWhitneyJoin(4)) == CanonKey(CycleJoin(4)) {
		t.Error("LW4 shares a key with cycle4")
	}
	// The triangle is LW3 and the 3-cycle at once; all three spellings
	// must agree.
	assertSameKey(t, TriangleJoin(), CycleJoin(3))
	assertSameKey(t, TriangleJoin(), LoomisWhitneyJoin(3))
}

func TestCanonCatalogInvariance(t *testing.T) {
	for _, e := range Catalog() {
		q := e.Query
		t.Run(q.Name(), func(t *testing.T) {
			cf := Canon(q)
			if cf == nil {
				t.Fatalf("Canon returned nil for catalog query %s", q.Name())
			}
			assertValidForm(t, q, cf)
			assertSameKey(t, q, relabeled(t, q, reversePerm(q.NumAttrs()), reverseOrder(q.NumEdges()), "X"))
		})
	}
}

func TestCanonOversize(t *testing.T) {
	var parts []string
	for i := 0; i <= CanonMaxAttrs; i++ {
		parts = append(parts, fmt.Sprintf("R%d(A%d,A%d)", i, i, i+1))
	}
	big := MustParse("big", strings.Join(parts, " "))
	if Canon(big) != nil {
		t.Error("Canon accepted a query beyond CanonMaxAttrs")
	}
	if CanonKey(big) != "" {
		t.Error("CanonKey nonempty for an oversize query")
	}
}

// FuzzCanonInvariance asserts the canonical key is invariant under
// arbitrary vertex relabelings and edge reorderings of random small
// hypergraphs: Canon(q) and Canon(permute(q)) must agree.
func FuzzCanonInvariance(f *testing.F) {
	f.Add([]byte{3, 0b011, 0b110}, uint64(1))
	f.Add([]byte{4, 0b0011, 0b0110, 0b1100, 0b1001}, uint64(7))
	f.Add([]byte{5, 0b00111, 0b11100, 0b00111}, uint64(42))   // duplicate edge
	f.Add([]byte{6, 0b000011, 0b001100, 0b110000}, uint64(9)) // disconnected
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		if len(data) < 2 {
			return
		}
		n := 2 + int(data[0])%6 // 2..7 vertices
		var parts []string
		m := 0
		for _, b := range data[1:] {
			mask := int(b) % (1 << n)
			if mask == 0 {
				continue
			}
			var names []string
			for v := 0; v < n; v++ {
				if mask&(1<<v) != 0 {
					names = append(names, fmt.Sprintf("A%d", v))
				}
			}
			parts = append(parts, fmt.Sprintf("R%d(%s)", m, strings.Join(names, ",")))
			m++
			if m == 6 {
				break
			}
		}
		if m == 0 {
			return
		}
		q := MustParse("fuzz", strings.Join(parts, " "))

		// Deterministic permutations from the seed (no global RNG in
		// tests either: a tiny xorshift is plenty).
		rng := seed | 1
		next := func(k int) int {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return int(rng % uint64(k))
		}
		perm := identityPerm(q.NumAttrs())
		for i := len(perm) - 1; i > 0; i-- {
			j := next(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		order := identityPerm(q.NumEdges())
		for i := len(order) - 1; i > 0; i-- {
			j := next(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		p := relabeled(t, q, perm, order, "S")

		cq, cp := Canon(q), Canon(p)
		if cq == nil || cp == nil {
			t.Fatalf("Canon returned nil for a %d-vertex, %d-edge query", n, m)
		}
		if cq.Key != cp.Key {
			t.Fatalf("canonical key not invariant:\n  q=%s key=%s\n  p=%s key=%s",
				q, cq.Key, p, cp.Key)
		}
		assertValidForm(t, q, cq)
		assertValidForm(t, p, cp)
	})
}
