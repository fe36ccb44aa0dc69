package mpc

import (
	"fmt"

	"coverpack/internal/relation"
)

// The exchange kernel: with the spreads' fills below, the only code in
// the package that moves tuples between fragments. Every exchange but
// Spread and DistributeSpread runs its two passes over it.
//
// An exchange's input is its fragments' rows in server order, one arena
// (relation.Frags), cut into chunks of consecutive rows. Pass 1 routes
// every tuple, chunk by chunk, keeps the one destination id the router
// returns for it and counts the tuple's destinations: that id, or,
// under RouteFan's fan, the id plus each of the fan's fixed offsets.
// The counts size one pooled blob exactly, and, prefix-summed
// destination by destination and chunk by chunk within a destination,
// give every chunk its own write cursors into it. Pass 2 copies each row
// to its cursors: on the one-destination path rows of one to four
// values move as fixed-size arrays in a loop written for that arity,
// and wider rows go through copy; under a fan each copy goes through
// putRow. The output hands over the blob with the prefix-summed counts
// as its offsets: the destinations' fragments tile it, with no header
// of their own. Chunk-major cursors within a destination are input
// order, so the output is the same for any chunking, and one chunk is
// the sequential exchange. One chunk runs both passes inline; several
// run them on the pool. All bookkeeping lives in the exchange's scratch
// (scratch.go): one id a tuple, or none for Route, whose pass 2 calls
// its function again.

// An exchange's two passes over chunk ci: count leaves the chunk's
// per-destination tuple counts in its c.cur, over nd destinations; fill
// copies its rows to the write cursors c.cur then holds, advancing
// them. Passes are values passed as type arguments, as are the routers
// under them: routing builds no function value.
type passes interface {
	count(x *xrun, in relation.Frags, ci, nd int)
	fill(x *xrun, in relation.Frags, blob []relation.Value, ci int)
}

// router returns the destination id of one tuple, in [0, nd) with
// nd < 1<<31: under a fan, the base id the fan's offsets add to. c is
// the tuple's chunk, whose routing state pass 1 resets to -1, and flat
// the tuple's index among the input's rows. A router validates what a
// caller handed it; the kernel trusts the ids.
type router interface {
	route(c *xchunk, t relation.Tuple, flat int) uint32
}

// noID is the id of a tuple a router drops, which the count skips
// (DistributeSpread, whose fill is its own).
const noID = ^uint32(0)

// scratch takes an exchange scratch holding the cut of n input rows:
// none for no rows, one chunk unless the exchange is big enough to fan
// out (parallel), then a few per worker so that uneven routing still
// balances.
func (g *Group) scratch(n int) *xrun {
	x := getScratch()
	switch {
	case g.cluster.chunker != nil:
		x.cut = append(x.cut[:0], g.cluster.chunker(n)...)
	case n == 0:
		x.cut = x.cut[:0]
	default:
		k := 1
		if g.parallel(n) {
			k = min(g.cluster.workers*chunkFactor, (n+minChunk-1)/minChunk)
		}
		x.cut = sized(x.cut, k+1)
		for i := range x.cut {
			x.cut[i] = i * n / k
		}
	}
	x.cs = sized(x.cs, x.chunks())
	return x
}

// chunks returns the number of chunks in x's cut.
func (x *xrun) chunks() int { return max(len(x.cut)-1, 0) }

// rowsOf returns chunk ci's rows of in, and their first index.
func (x *xrun) rowsOf(in relation.Frags, ci int) ([]relation.Value, int) {
	lo, hi, a := x.cut[ci], x.cut[ci+1], in.Schema.Len()
	all := in.Collect()
	return all.Data()[lo*a : hi*a], lo
}

// exchange moves in's tuples, cut as x.cut, to nd destinations by the
// passes p. It returns the nd output fragments and leaves in x.recv the
// per-destination tuple counts, of length max(nd, group size) — the
// charged recv vector of an exchange that charges every delivery. The
// caller charges and admits.
func exchange[P passes](g *Group, x *xrun, in relation.Frags, nd int, p P) relation.Frags {
	c, n := g.cluster, x.chunks()
	x.recv = zeroed(x.recv, max(nd, g.size))
	if n == 1 {
		p.count(x, in, 0, nd)
	} else if n > 1 {
		c.fork(n, func(ci int) { p.count(x, in, ci, nd) })
	}
	total := 0
	for _, ch := range x.cs[:n] {
		for dest, v := range ch.cur {
			x.recv[dest] += v
			total += v
		}
	}
	blob := relation.GetArena(total * in.Schema.Len())[:total*in.Schema.Len()]
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
		p.fill(x, in, blob, 0)
	} else if n > 1 {
		c.fork(n, func(ci int) { p.fill(x, in, blob, ci) })
	}
	return relation.NewFragsCounts(in.Schema, blob, x.recv[:nd])
}

// stored is the passes of an exchange that stores one id a tuple, the
// one r returns, in its chunk's dst: the tuple goes to id+o for every
// offset o of fan, or to id alone when fan is nil.
type stored[R router] struct {
	r   R
	fan []int
}

func (p stored[R]) count(x *xrun, in relation.Frags, ci, nd int) {
	data, lo := x.rowsOf(in, ci)
	c, arity := &x.cs[ci], in.Schema.Len()
	rows := x.cut[ci+1] - lo
	dst := c.ids(rows)[:rows]
	c.src = -1
	for i := range dst {
		dst[i] = p.r.route(c, data[i*arity:(i+1)*arity:(i+1)*arity], lo+i)
	}
	c.dst, c.cur = dst, zeroed(c.cur, nd)
	for _, id := range dst {
		switch {
		case p.fan != nil:
			for _, o := range p.fan {
				c.cur[int(id)+o]++
			}
		case id != noID:
			c.cur[id]++
		}
	}
}

func (p stored[R]) fill(x *xrun, in relation.Frags, blob []relation.Value, ci int) {
	data, _ := x.rowsOf(in, ci)
	c, arity := &x.cs[ci], in.Schema.Len()
	if p.fan == nil {
		fillOne(blob, data, c.dst, c.cur, arity)
		return
	}
	for i, id := range c.dst {
		for _, o := range p.fan {
			at := &c.cur[int(id)+o]
			putRow(blob, *at, data[i*arity:(i+1)*arity])
			*at++
		}
	}
}

// calls is Route's passes: they store nothing, and the fill calls the
// route function again.
type calls struct {
	fn   func(src int, t relation.Tuple) []int
	size int
}

func (p calls) count(x *xrun, in relation.Frags, ci, nd int) {
	x.cs[ci].cur = zeroed(x.cs[ci].cur, nd)
	p.each(x, in, nil, ci)
}

func (p calls) fill(x *xrun, in relation.Frags, blob []relation.Value, ci int) {
	p.each(x, in, blob, ci)
}

// each walks chunk ci's rows and every destination fn returns for them:
// with blob nil it counts the destination, else copies the row to it.
func (p calls) each(x *xrun, in relation.Frags, blob []relation.Value, ci int) {
	data, lo := x.rowsOf(in, ci)
	c, arity, src := &x.cs[ci], in.Schema.Len(), 0
	for i := range x.cut[ci+1] - lo {
		for lo+i >= in.Start(src+1) {
			src++
		}
		row := data[i*arity : (i+1)*arity : (i+1)*arity]
		for _, dest := range p.fn(src, row) {
			if dest < 0 || dest >= p.size {
				panic(fmt.Sprintf("mpc: route destination %d outside group of size %d", dest, p.size))
			}
			if blob != nil {
				putRow(blob, c.cur[dest], row)
			}
			c.cur[dest]++
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

// spreadFill copies chunk ci's rows to every branch of a Spread. In a
// k-server branch, input row i is row i/k of server i mod k, so the
// chunk starts at quotient lo/k and server lo mod k of each branch, lo
// its first row, and walks the servers in rotation: nothing is routed,
// counted or stored per row.
func spreadFill(x *xrun, in relation.Frags, blob []relation.Value, sizes []int, ci int) {
	data, lo := x.rowsOf(in, ci)
	rows, arity := x.cut[ci+1]-lo, in.Schema.Len()
	for b, k := range sizes {
		first := x.first[x.offs[b] : x.offs[b]+k]
		fillRotate(blob, data, rows, first, lo/k, lo%k, arity)
	}
}

// pickFill copies chunk ci's rows to their branches in a
// DistributeSpread: a row whose id is branch b is the q-th pick of b,
// q counted in c.cur[b] from the chunk's first rank there, and goes to
// row q of every server of b under broadcast, and otherwise to row q/k
// of server q mod k of a k-server branch.
func pickFill(x *xrun, in relation.Frags, blob []relation.Value, sizes []int, ci int, broadcast bool) {
	data, lo := x.rowsOf(in, ci)
	c, arity := &x.cs[ci], in.Schema.Len()
	for i, id := range c.dst[:x.cut[ci+1]-lo] {
		if id == noID {
			continue
		}
		b := int(id)
		q := c.cur[b]
		c.cur[b]++
		first, row := x.first[x.offs[b]:x.offs[b]+sizes[b]], data[i*arity:(i+1)*arity]
		if !broadcast {
			k := len(first)
			putRow(blob, first[q%k]+q/k, row)
			continue
		}
		for _, f := range first {
			putRow(blob, f+q, row)
		}
	}
}

// putRow copies row to row at of blob, len(row) values a row. Rows of
// one to four values move as fixed-size arrays, as in fillOne.
func putRow(blob []relation.Value, at int, row []relation.Value) {
	switch len(row) {
	case 1:
		blob[at] = row[0]
	case 2:
		*(*[2]relation.Value)(blob[at*2:]) = *(*[2]relation.Value)(row)
	case 3:
		*(*[3]relation.Value)(blob[at*3:]) = *(*[3]relation.Value)(row)
	case 4:
		*(*[4]relation.Value)(blob[at*4:]) = *(*[4]relation.Value)(row)
	default:
		copy(blob[at*len(row):], row)
	}
}

// fillRotate copies rows rows of data (arity values a row) to one
// branch: the next row goes to row q of the server s, whose first row
// in blob is first[s], and s rotates over the len(first) servers,
// advancing q on wrapping. Rows of one to four values move as
// fixed-size arrays, as in fillOne.
func fillRotate(blob, data []relation.Value, rows int, first []int, q, s, arity int) {
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
}

// roundRobin routes input row i to destination i mod k.
type roundRobin int

func (k roundRobin) route(_ *xchunk, _ relation.Tuple, flat int) uint32 {
	return uint32(flat % int(k))
}
