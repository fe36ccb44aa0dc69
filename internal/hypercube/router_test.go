package hypercube

import (
	"encoding/binary"
	"math/rand/v2"
	"slices"
	"testing"

	"coverpack/internal/relation"
)

// gridCase decodes one routing case from b (bytes past the end read as
// zero): a grid of 1–5 dimensions whose shares multiply to at most 64
// over ascending, gappy attribute ids; a schema holding any subset of
// them — all pinned, all free, or arity 1 — plus, sometimes, an
// attribute outside the grid; a tuple over that schema; and a salt.
func gridCase(b []byte) (*grid, relation.Schema, relation.Tuple, uint64) {
	next := func() byte {
		if len(b) == 0 {
			return 0
		}
		c := b[0]
		b = b[1:]
		return c
	}
	k := 1 + int(next())%5
	attrs := make([]int, k)
	shares := make(map[int]int, k)
	prod := 1
	for i := range attrs {
		attrs[i] = 2*i + int(next()%2)
		s := 1 + int(next())%8
		for prod*s > 64 {
			s--
		}
		shares[attrs[i]] = s
		prod *= s
	}
	pin, extra := next(), next()
	var schemaAttrs []int
	for i, a := range attrs {
		if pin>>uint(i)&1 == 1 {
			schemaAttrs = append(schemaAttrs, a)
		}
	}
	if extra%2 == 1 || len(schemaAttrs) == 0 {
		schemaAttrs = append(schemaAttrs, 100)
	}
	s := relation.NewSchema(schemaAttrs...)
	tup := make(relation.Tuple, s.Len())
	var w [8]byte
	for i := range tup {
		for j := range w {
			w[j] = next()
		}
		tup[i] = relation.Value(binary.LittleEndian.Uint64(w[:]))
	}
	for j := range w {
		w[j] = next()
	}
	return newGrid(attrs, shares), s, tup, binary.LittleEndian.Uint64(w[:])
}

// bruteCells enumerates every grid cell and keeps, in ascending order,
// those whose coordinate in each pinned dimension equals the hash of the
// tuple's value there.
func bruteCells(gr *grid, s relation.Schema, t relation.Tuple, salt uint64) []int {
	var out []int
	for cell := 0; cell < gr.size; cell++ {
		keep := true
		for i, a := range gr.attrs {
			p := s.Pos(a)
			if p < 0 {
				continue
			}
			h := coordHash(t[p], salt+uint64(a+1)*0x51_7c_c1_b7_27_22_0a_95) % uint64(gr.dims[i])
			if uint64(cell/gr.stride[i]%gr.dims[i]) != h {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, cell)
		}
	}
	return out
}

// cells lists the cells r sends t to: its base plus every offset of
// its fan, sorted.
func cells(r router, t relation.Tuple) []int {
	fan := r.fan()
	if fan == nil {
		fan = []int{0}
	}
	out := make([]int, len(fan))
	for i, o := range fan {
		out[i] = r.base(0, t) + o
	}
	slices.Sort(out)
	return out
}

// checkGridRoute routes the case of b and requires exactly the
// brute-force cell list.
func checkGridRoute(t *testing.T, b []byte) {
	gr, s, tup, salt := gridCase(b)
	got := cells(gr.router(s, salt), tup)
	if want := bruteCells(gr, s, tup, salt); !slices.Equal(got, want) {
		t.Fatalf("dims %v schema %v tuple %v salt %#x: routed to %v, want %v", gr.dims, s, tup, salt, got, want)
	}
}

func TestGridRouterMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	b := make([]byte, 64)
	for range 5000 {
		for i := range b {
			b[i] = byte(rng.Uint32())
		}
		checkGridRoute(t, b)
	}
}

func FuzzGridRouting(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 3, 1, 3, 0, 3, 0b111, 0}) // all pinned, 4×4×4
	f.Add([]byte{2, 0, 3, 1, 3, 0, 3, 0, 0})     // all free
	f.Add([]byte{0, 1, 7, 1, 0, 5, 5, 5, 5})     // arity 1
	f.Add([]byte{4, 0, 1, 1, 1, 0, 1, 1, 1, 0, 1, 0b01010, 1, 9, 9, 9})
	f.Fuzz(checkGridRoute)
}

// Routing one tuple must not allocate: a tuple's sub-grid is its base
// cell, and the fan of offsets is built once per relation.
func TestGridRouterAllocFree(t *testing.T) {
	gr := newGrid([]int{0, 1, 2}, map[int]int{0: 4, 1: 4, 2: 4})
	r := gr.router(relation.NewSchema(0, 2), 1)
	tup := relation.Tuple{5, 9}
	if allocs := testing.AllocsPerRun(100, func() { r.base(0, tup) }); allocs != 0 {
		t.Fatalf("base allocated %.1f times per tuple", allocs)
	}
	if fan := r.fan(); !slices.Equal(fan, []int{0, 4, 8, 12}) {
		t.Fatalf("one free dimension of 4, stride 4: fan %v", fan)
	}
}
