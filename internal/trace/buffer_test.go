package trace

import (
	"reflect"
	"testing"
)

// emitScript drives a recorder through a fixed span/exchange sequence.
func emitScript(r Recorder) {
	r.BeginSpan("phase-a", KindPhase, 4)
	r.Exchange(OpHashPartition, []int{3, 1, 0, 2})
	r.BeginSpan("branch 0", KindParallel, 2)
	r.Exchange(OpRoute, []int{5, 5})
	r.EndSpan()
	r.EndSpan()
	r.Exchange(OpGather, []int{11, 0, 0, 0})
}

func TestBufferReplayMatchesDirectRecording(t *testing.T) {
	direct := NewCollector()
	emitScript(direct)

	buf := NewBuffer()
	emitScript(buf)
	if len(buf.ops) != 7 {
		t.Fatalf("buffered %d ops, want 7", len(buf.ops))
	}
	replayed := NewCollector()
	buf.ReplayInto(replayed)

	if !reflect.DeepEqual(direct.Root(), replayed.Root()) {
		t.Fatal("replayed span tree differs from direct recording")
	}
}

func TestBufferCopiesRecv(t *testing.T) {
	buf := NewBuffer()
	recv := []int{1, 2, 3}
	buf.Exchange(OpSendTo, recv)
	recv[0] = 99 // simulator may reuse the slice; the buffer must not see it
	col := NewCollector()
	buf.ReplayInto(col)
	root := col.Root()
	if got := root.Events[0].Hist.Max; got != 3 {
		t.Fatalf("replayed max %d, want 3 (buffer aliased the recv slice)", got)
	}
}
