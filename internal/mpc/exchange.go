package mpc

import "coverpack/internal/relation"

// The exchange kernel: the only code in the package that moves tuples
// between fragments. Every exchange is a routing function over it.
//
// Pass 1 calls the routing function once per tuple, chunk by chunk,
// keeps the destination ids it returns and counts them per destination.
// The counts size one pooled slab exactly (relation.NewSlabCounts) and,
// prefix-summed destination by destination and chunk by chunk within a
// destination, give every chunk its own write cursors into it. Pass 2
// copies each row to its cursors. Chunks partition the flattened
// (fragment-major) input in order, so chunk-major cursors within a
// destination are flattened input order: the output is the same for
// any chunking, and one chunk is the sequential exchange.

// routeFn appends the destinations of one tuple, as ids in [0, nd) with
// nd < 1<<31, to dst. f is the source fragment, src its index, flat the tuple's index
// in the flattened input. It validates what a caller handed it; the
// kernel trusts the ids.
type routeFn func(dst []uint32, src int, f *relation.Relation, t relation.Tuple, flat int) []uint32

// chunkOut is what pass 1 leaves behind for one chunk.
type chunkOut struct {
	dst []uint32 // destination ids in tuple order (see lastID)
	cur []int    // per destination: ids counted, then the next row to write
	own *[]int   // cur's send-list handle when there are several chunks
}

// When a tuple may have any number of destinations, the last id of its
// run in dst carries lastID, and a tuple with none leaves the lone
// entry noID (which carries it too). With exactly one destination per
// tuple the ids are stored bare.
const (
	lastID uint32 = 1 << 31
	noID          = ^uint32(0)
)

// chunksOf cuts d for an exchange: one chunk unless the exchange is big
// enough to fan out (parallel), then a few per worker so that uneven
// fragments still balance.
func (g *Group) chunksOf(d *DistRelation) [][]frange {
	if g.cluster.chunker != nil {
		return g.cluster.chunker(d)
	}
	total, nchunks := d.Len(), 1
	if g.parallel(total) {
		nchunks = min(g.cluster.workers*chunkFactor, (total+minChunk-1)/minChunk)
	}
	return flatChunks(d, total, nchunks)
}

// exchange routes d's tuples to nd destinations. router is called once
// per chunk, on the goroutine that runs the chunk, and returns that
// chunk's routing function (so per-chunk scratch needs no locking);
// single promises exactly one destination per tuple. It returns the nd
// output fragments, the per-destination tuple counts in a vector of
// length max(nd, group size) — the charged recv vector of an exchange
// that charges every delivery — and, when single, the destination of
// every tuple in flattened order. The caller charges and admits.
func (g *Group) exchange(d *DistRelation, chunks [][]frange, nd int, single bool, router func(ci int) routeFn) ([]*relation.Relation, []int, []uint32) {
	c, arity := g.cluster, d.Schema.Len()
	outs := make([]chunkOut, len(chunks))
	recv := make([]int, max(nd, g.size))
	var all []uint32
	if single {
		all = make([]uint32, d.Len())
	}
	c.fork(len(chunks), func(ci int) {
		chunk := chunks[ci]
		last := chunk[len(chunk)-1]
		lo := chunk[0].base // the chunk is flattened tuples [lo, lo+rows)
		rows := last.base + last.hi - last.lo - lo
		var dst []uint32
		if single {
			dst = all[lo : lo : lo+rows]
		} else {
			dst = make([]uint32, 0, rows)
		}
		route := router(ci)
		for _, r := range chunk {
			f := d.Frags[r.frag]
			data := f.Data()
			for i := r.lo; i < r.hi; i++ {
				before := len(dst)
				dst = route(dst, r.frag, f, data[i*arity:(i+1)*arity:(i+1)*arity], r.base+i-r.lo)
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
		o := chunkOut{dst: dst, cur: recv}
		if len(chunks) > 1 {
			o.own = getSendList(nd)
			o.cur = *o.own
		}
		for _, x := range dst {
			if x != noID {
				o.cur[x&^lastID]++
			}
		}
		outs[ci] = o
	})
	if len(chunks) > 1 {
		for _, o := range outs {
			for x, v := range o.cur {
				recv[x] += v
			}
		}
	}
	frags, blob := relation.NewSlabCounts(d.Schema, recv[:nd])
	c.trackArena(blob)
	if len(blob) > 0 {
		// next[x] is the first unwritten row of destination x; handing
		// it to the chunks in order is the (destination, chunk) prefix sum.
		next := make([]int, nd)
		row := 0
		for x, v := range recv[:nd] {
			next[x] = row
			row += v
		}
		if len(outs) == 1 {
			outs[0].cur = next
		} else {
			for _, o := range outs {
				for x, v := range o.cur {
					o.cur[x] = next[x]
					next[x] += v
				}
			}
		}
		c.fork(len(chunks), func(ci int) {
			o, j := outs[ci], 0
			for _, r := range chunks[ci] {
				data := d.Frags[r.frag].Data()
				for i := r.lo; i < r.hi; i++ {
					for more := true; more; j++ {
						x := o.dst[j]
						if x != noID {
							copy(blob[o.cur[x&^lastID]*arity:], data[i*arity:(i+1)*arity])
							o.cur[x&^lastID]++
						}
						more = !single && x&lastID == 0
					}
				}
			}
		})
	}
	if len(outs) > 1 {
		for _, o := range outs {
			putSendList(o.own)
		}
	}
	return frags, recv, all
}

// roundRobin routes flattened tuple i to destination i mod k.
func roundRobin(k int) func(int) routeFn {
	return func(int) routeFn {
		return func(dst []uint32, _ int, _ *relation.Relation, _ relation.Tuple, flat int) []uint32 {
			return append(dst, uint32(flat%k))
		}
	}
}
