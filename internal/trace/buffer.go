package trace

// Buffer is a Recorder that stores emissions in memory for later
// replay. It is the assembly mechanism behind deterministic concurrent
// tracing: each concurrently executing Parallel branch records into its
// own Buffer, and after every branch has finished the engine replays
// the buffers into the parent recorder in branch order, producing the
// exact event stream a sequential execution would have produced. A
// Buffer is single-goroutine like every Recorder; isolation comes from
// giving each branch its own instance.
type Buffer struct {
	ops []bufferedOp
}

type bufferedOpKind uint8

const (
	bufBegin bufferedOpKind = iota
	bufEnd
	bufExchange
)

type bufferedOp struct {
	kind bufferedOpKind
	// begin-span fields
	name     string
	spanKind SpanKind
	servers  int
	// exchange fields
	op   Op
	recv []int
}

// NewBuffer returns an empty replayable recorder.
func NewBuffer() *Buffer { return &Buffer{} }

// BeginSpan records a span opening.
func (b *Buffer) BeginSpan(name string, kind SpanKind, servers int) {
	b.ops = append(b.ops, bufferedOp{kind: bufBegin, name: name, spanKind: kind, servers: servers})
}

// EndSpan records a span close.
func (b *Buffer) EndSpan() {
	b.ops = append(b.ops, bufferedOp{kind: bufEnd})
}

// Exchange records one charged exchange; recv is copied, per the
// Recorder contract.
func (b *Buffer) Exchange(op Op, recv []int) {
	b.ops = append(b.ops, bufferedOp{kind: bufExchange, op: op, recv: append([]int(nil), recv...)})
}

// ReplayInto re-emits the buffered stream into r in recording order.
func (b *Buffer) ReplayInto(r Recorder) {
	for _, op := range b.ops {
		switch op.kind {
		case bufBegin:
			r.BeginSpan(op.name, op.spanKind, op.servers)
		case bufEnd:
			r.EndSpan()
		case bufExchange:
			r.Exchange(op.op, op.recv)
		}
	}
}
