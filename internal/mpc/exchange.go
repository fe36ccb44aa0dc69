package mpc

import "coverpack/internal/relation"

// The exchange kernel: with Spread's fill below, the only code in the
// package that moves tuples between fragments. Every exchange but
// Spread is a router over it.
//
// Pass 1 routes every tuple, chunk by chunk, keeps the destination ids
// the router returns and counts them per destination. The counts size
// one pooled slab exactly (relation.NewSlabCounts) and, prefix-summed
// destination by destination and chunk by chunk within a destination,
// give every chunk its own write cursors into it. Pass 2 copies each row
// to its cursors, by arity: rows of one to four values move as
// fixed-size arrays in a loop written for that arity, on the
// one-destination path and on the many-destination path alike; wider
// rows go through copy. Chunks partition the flattened (fragment-major)
// input in order, so chunk-major cursors within a destination are
// flattened input order: the output is the same for any chunking, and
// one chunk is the sequential exchange. One chunk runs both passes
// inline; several run them on the pool. All bookkeeping lives in the
// exchange's scratch (scratch.go).

// router appends the destinations of one tuple, as ids in [0, nd) with
// nd < 1<<31, to dst. c is the tuple's chunk, src the index of its
// source fragment, flat its index in the flattened input. A router
// validates what a caller handed it; the kernel trusts the ids. Routers
// are values passed as type arguments: routing builds no function value.
type router interface {
	route(c *xchunk, dst []uint32, src int, t relation.Tuple, flat int) []uint32
}

// When a tuple may have any number of destinations, the last id of its
// run in dst carries lastID, and a tuple with none leaves the lone
// entry noID (which carries it too). With exactly one destination per
// tuple the ids are stored bare.
const (
	lastID uint32 = 1 << 31
	noID          = ^uint32(0)
)

// scratch takes an exchange scratch holding d's cut: one chunk unless
// the exchange is big enough to fan out (parallel), then a few per
// worker so that uneven fragments still balance.
func (g *Group) scratch(d *DistRelation) *xrun {
	x := getScratch()
	if g.cluster.chunker != nil {
		x.chunks = append(x.chunks[:0], g.cluster.chunker(d)...)
	} else {
		total, n := d.Len(), 1
		if g.parallel(total) {
			n = min(g.cluster.workers*chunkFactor, (total+minChunk-1)/minChunk)
		}
		x.chunks = x.flatChunks(d, total, n)
	}
	x.cs = sized(x.cs, len(x.chunks))
	return x
}

// exchange routes d's tuples, cut as x.chunks, to nd destinations by r;
// single promises exactly one destination per tuple. It returns the nd
// output fragments and leaves in x.recv the per-destination tuple
// counts, of length max(nd, group size) — the charged recv vector of an
// exchange that charges every delivery — and each chunk's destination
// ids in its dst. The caller charges and admits.
func exchange[R router](g *Group, x *xrun, d *DistRelation, nd int, single bool, r R) []*relation.Relation {
	c, n := g.cluster, len(x.chunks)
	x.recv = zeroed(x.recv, max(nd, g.size))
	if n == 1 {
		pass1(x, d, r, 0, nd, single)
	} else if n > 1 {
		c.fork(n, func(ci int) { pass1(x, d, r, ci, nd, single) })
	}
	for _, ch := range x.cs[:n] {
		for dest, v := range ch.cur {
			x.recv[dest] += v
		}
	}
	frags, blob := relation.NewSlabCounts(d.Schema, x.recv[:nd])
	c.trackArena(blob)
	// The (destination, chunk) prefix sum of the counts turns each
	// chunk's count for a destination into its first row there.
	row := 0
	for dest := range nd {
		for _, ch := range x.cs[:n] {
			ch.cur[dest], row = row, row+ch.cur[dest]
		}
	}
	if n == 1 {
		pass2(x, d, blob, 0, single)
	} else if n > 1 {
		c.fork(n, func(ci int) { pass2(x, d, blob, ci, single) })
	}
	return frags
}

// pass1 routes chunk ci by r and counts its destination ids into the
// chunk's cursor vector.
func pass1[R router](x *xrun, d *DistRelation, r R, ci, nd int, single bool) {
	chunk, c, arity := x.chunks[ci], &x.cs[ci], d.Schema.Len()
	last := chunk[len(chunk)-1]
	dst := c.ids(last.base + last.hi - last.lo - chunk[0].base) // one id a tuple, or more
	for _, s := range chunk {
		data := d.Frags[s.frag].Data()
		for i := s.lo; i < s.hi; i++ {
			before := len(dst)
			dst = r.route(c, dst, s.frag, data[i*arity:(i+1)*arity:(i+1)*arity], s.base+i-s.lo)
			if single {
				continue
			}
			if len(dst) == before {
				dst = append(dst, noID)
			} else {
				dst[len(dst)-1] |= lastID
			}
		}
	}
	c.dst, c.cur = dst, zeroed(c.cur, nd)
	for _, id := range dst {
		if id != noID {
			c.cur[id&^lastID]++
		}
	}
}

// pass2 copies chunk ci's rows to their destinations' write cursors.
func pass2(x *xrun, d *DistRelation, blob []relation.Value, ci int, single bool) {
	c, j, arity := &x.cs[ci], 0, d.Schema.Len()
	for _, s := range x.chunks[ci] {
		rows := s.hi - s.lo
		data := d.Frags[s.frag].Data()[s.lo*arity : s.hi*arity]
		if single {
			fillOne(blob, data, c.dst[j:j+rows], c.cur, arity)
			j += rows
		} else {
			j = fillMany(blob, data, rows, c.dst, j, c.cur, arity)
		}
	}
}

// fillOne copies row i of data (arity values a row) to blob row
// cur[ids[i]] and advances that cursor: one destination a row. Rows of
// one to four values move as fixed-size arrays, straight-line loads and
// stores; for rows that short, copy's memmove call costs more than the
// row. Wider rows go through copy.
func fillOne(blob, data []relation.Value, ids []uint32, cur []int, arity int) {
	switch arity {
	case 1:
		for i, id := range ids {
			at := &cur[id]
			blob[*at] = data[i]
			*at++
		}
	case 2:
		for i, id := range ids {
			at := &cur[id]
			*(*[2]relation.Value)(blob[*at*2:]) = *(*[2]relation.Value)(data[i*2:])
			*at++
		}
	case 3:
		for i, id := range ids {
			at := &cur[id]
			*(*[3]relation.Value)(blob[*at*3:]) = *(*[3]relation.Value)(data[i*3:])
			*at++
		}
	case 4:
		for i, id := range ids {
			at := &cur[id]
			*(*[4]relation.Value)(blob[*at*4:]) = *(*[4]relation.Value)(data[i*4:])
			*at++
		}
	default:
		for i, id := range ids {
			at := &cur[id]
			copy(blob[*at*arity:], data[i*arity:(i+1)*arity])
			*at++
		}
	}
}

// fillMany is fillOne for any number of destinations a row: the ids
// from ids[j] on run as lastID and noID mark them, one run a row. It
// returns the index past the last run.
func fillMany(blob, data []relation.Value, rows int, ids []uint32, j int, cur []int, arity int) int {
	switch arity {
	case 1:
		for i := range rows {
			for more := true; more; j++ {
				id := ids[j]
				if id != noID {
					at := &cur[id&^lastID]
					blob[*at] = data[i]
					*at++
				}
				more = id&lastID == 0
			}
		}
	case 2:
		for i := range rows {
			for more := true; more; j++ {
				id := ids[j]
				if id != noID {
					at := &cur[id&^lastID]
					*(*[2]relation.Value)(blob[*at*2:]) = *(*[2]relation.Value)(data[i*2:])
					*at++
				}
				more = id&lastID == 0
			}
		}
	case 3:
		for i := range rows {
			for more := true; more; j++ {
				id := ids[j]
				if id != noID {
					at := &cur[id&^lastID]
					*(*[3]relation.Value)(blob[*at*3:]) = *(*[3]relation.Value)(data[i*3:])
					*at++
				}
				more = id&lastID == 0
			}
		}
	case 4:
		for i := range rows {
			for more := true; more; j++ {
				id := ids[j]
				if id != noID {
					at := &cur[id&^lastID]
					*(*[4]relation.Value)(blob[*at*4:]) = *(*[4]relation.Value)(data[i*4:])
					*at++
				}
				more = id&lastID == 0
			}
		}
	default:
		for i := range rows {
			for more := true; more; j++ {
				id := ids[j]
				if id != noID {
					at := &cur[id&^lastID]
					copy(blob[*at*arity:], data[i*arity:(i+1)*arity])
					*at++
				}
				more = id&lastID == 0
			}
		}
	}
	return j
}

// spreadFill copies chunk ci's rows to every branch of a Spread. In a
// k-server branch, flattened tuple i is row i/k of server i mod k, so
// the chunk starts at quotient f0/k and server f0 mod k of each branch,
// f0 its first flattened index, and walks the servers in rotation:
// nothing is routed, counted or stored per row.
func spreadFill(x *xrun, d *DistRelation, blob []relation.Value, sizes []int, ci int) {
	chunk, arity := x.chunks[ci], d.Schema.Len()
	f0, lo := chunk[0].base, 0
	for _, k := range sizes {
		first := x.first[lo : lo+k]
		lo += k
		q, s := f0/k, f0%k
		for _, sp := range chunk {
			data := d.Frags[sp.frag].Data()[sp.lo*arity : sp.hi*arity]
			q, s = fillRotate(blob, data, sp.hi-sp.lo, first, q, s, arity)
		}
	}
}

// fillRotate copies rows rows of data (arity values a row) to one
// branch: the next row goes to row q of the server s, whose first row
// in blob is first[s], and s rotates over the len(first) servers,
// advancing q on wrapping. It returns the next (q, s). Rows of one to
// four values move as fixed-size arrays, as in fillOne.
func fillRotate(blob, data []relation.Value, rows int, first []int, q, s, arity int) (int, int) {
	k := len(first)
	switch arity {
	case 1:
		for i := range rows {
			blob[first[s]+q] = data[i]
			if s++; s == k {
				s, q = 0, q+1
			}
		}
	case 2:
		for i := range rows {
			*(*[2]relation.Value)(blob[(first[s]+q)*2:]) = *(*[2]relation.Value)(data[i*2:])
			if s++; s == k {
				s, q = 0, q+1
			}
		}
	case 3:
		for i := range rows {
			*(*[3]relation.Value)(blob[(first[s]+q)*3:]) = *(*[3]relation.Value)(data[i*3:])
			if s++; s == k {
				s, q = 0, q+1
			}
		}
	case 4:
		for i := range rows {
			*(*[4]relation.Value)(blob[(first[s]+q)*4:]) = *(*[4]relation.Value)(data[i*4:])
			if s++; s == k {
				s, q = 0, q+1
			}
		}
	default:
		for i := range rows {
			copy(blob[(first[s]+q)*arity:], data[i*arity:(i+1)*arity])
			if s++; s == k {
				s, q = 0, q+1
			}
		}
	}
	return q, s
}

// roundRobin routes flattened tuple i to destination i mod k.
type roundRobin int

func (k roundRobin) route(_ *xchunk, dst []uint32, _ int, _ relation.Tuple, flat int) []uint32 {
	return append(dst, uint32(flat%int(k)))
}
