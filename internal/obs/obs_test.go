package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

func TestSetActiveRoundTrip(t *testing.T) {
	if Active() != nil {
		t.Fatal("observer should start disabled")
	}
	c := &Counters{}
	if prev := Set(c); prev != nil {
		t.Fatalf("Set on disabled state returned %v, want nil", prev)
	}
	if Active() != Observer(c) {
		t.Fatal("Active did not return the installed observer")
	}
	tr := NewTrace(8)
	if prev := Set(tr); prev != Observer(c) {
		t.Fatalf("Set did not return the previous observer, got %v", prev)
	}
	if prev := Set(nil); prev != Observer(tr) {
		t.Fatalf("Set(nil) did not return the previous observer, got %v", prev)
	}
	if Active() != nil {
		t.Fatal("Set(nil) should disable observation")
	}
}

func TestClockMonotonic(t *testing.T) {
	a := Clock()
	b := Clock()
	if b < a {
		t.Fatalf("clock went backwards: %d then %d", a, b)
	}
}

func TestCountersAggregate(t *testing.T) {
	c := &Counters{}
	base := c.Snapshot()
	c.Op(OpRecord{Op: "mxm", Kernel: "gustavson", EstFlops: 100, NnzOut: 7, DurNanos: 5})
	c.Op(OpRecord{Op: "mxm", Kernel: "dot", EstFlops: 50, NnzOut: 3})
	c.Op(OpRecord{Op: "vxm", Kernel: "push", EstFlops: 10, NnzOut: 2})
	c.Op(OpRecord{Op: "vxm", Kernel: "pull", EstFlops: 20, NnzOut: 1, Write: "dense"})
	c.Op(OpRecord{Op: "mxm", Kernel: "heap", EstFlops: 30, NnzOut: 4, Write: "adopt"})
	c.Op(OpRecord{Op: "wait", Kernel: "assemble", Pending: 12, Zombies: 3})
	c.Iter(IterRecord{Algo: "bfs", Iter: 1})
	c.Iter(IterRecord{Algo: "bfs", Iter: 2})
	d := c.Snapshot().Sub(base)
	if d.Ops != 6 || d.Iters != 2 || d.Waits != 1 {
		t.Fatalf("ops/iters/waits = %d/%d/%d, want 6/2/1", d.Ops, d.Iters, d.Waits)
	}
	if d.Gustavson != 1 || d.Dot != 1 || d.Heap != 1 || d.Push != 1 || d.Pull != 1 {
		t.Fatalf("kernel counts = %+v", d)
	}
	if d.Bitmap != 1 {
		t.Fatalf("dense-route writes = %d, want the one record with Write \"dense\"", d.Bitmap)
	}
	if d.EstFlops != 210 || d.NnzOut != 17 || d.Pending != 12 || d.Zombies != 3 || d.DurNanos != 5 {
		t.Fatalf("aggregates = %+v", d)
	}
	if _, err := json.Marshal(d); err != nil {
		t.Fatalf("snapshot must be JSON-marshalable: %v", err)
	}
}

func TestTraceRingWraparound(t *testing.T) {
	tr := NewTrace(4)
	for i := 0; i < 10; i++ {
		tr.Op(OpRecord{Op: "mxm", Rows: i})
		tr.Iter(IterRecord{Algo: "bfs", Iter: i})
	}
	ops := tr.Ops()
	if len(ops) != 4 {
		t.Fatalf("retained %d ops, want 4", len(ops))
	}
	for k, r := range ops {
		if r.Rows != 6+k {
			t.Fatalf("ops[%d].Rows = %d, want %d (oldest-first order)", k, r.Rows, 6+k)
		}
	}
	iters := tr.Iters()
	if len(iters) != 4 || iters[0].Iter != 6 || iters[3].Iter != 9 {
		t.Fatalf("iters = %+v", iters)
	}
	doc := tr.Document()
	if doc.DroppedOps != 6 || doc.DroppedIters != 6 {
		t.Fatalf("dropped = %d/%d, want 6/6", doc.DroppedOps, doc.DroppedIters)
	}
}

func TestTraceWriteJSON(t *testing.T) {
	tr := NewTrace(16)
	tr.Op(OpRecord{Op: "mxm", Kernel: "gustavson", Rows: 3, Cols: 3, NnzOut: 5, Masked: true})
	tr.Iter(IterRecord{Algo: "bfs", Iter: 1, Frontier: 9, Dir: "push"})
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc TraceDocument
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace output does not round-trip: %v", err)
	}
	if doc.Schema != TraceSchema {
		t.Fatalf("schema = %q, want %q", doc.Schema, TraceSchema)
	}
	if len(doc.Ops) != 1 || doc.Ops[0].Kernel != "gustavson" || !doc.Ops[0].Masked {
		t.Fatalf("ops = %+v", doc.Ops)
	}
	if len(doc.Iters) != 1 || doc.Iters[0].Dir != "push" || doc.Iters[0].Frontier != 9 {
		t.Fatalf("iters = %+v", doc.Iters)
	}
}

// TestTraceConcurrent exercises the ring under concurrent emission; run
// with -race this is the data-race check for the mutex discipline.
func TestTraceConcurrent(t *testing.T) {
	tr := NewTrace(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Op(OpRecord{Op: "mxm", Rows: g, Cols: i})
				tr.Iter(IterRecord{Algo: "bfs", Iter: i})
			}
		}(g)
	}
	wg.Wait()
	doc := tr.Document()
	if got := int64(len(doc.Ops)) + doc.DroppedOps; got != 800 {
		t.Fatalf("retained+dropped ops = %d, want 800", got)
	}
	if got := int64(len(doc.Iters)) + doc.DroppedIters; got != 800 {
		t.Fatalf("retained+dropped iters = %d, want 800", got)
	}
}

// TestActiveZeroAlloc pins the disabled-path guarantee at the source: the
// Active() nil-check itself allocates nothing.
func TestActiveZeroAlloc(t *testing.T) {
	Set(nil)
	if n := testing.AllocsPerRun(100, func() {
		if Active() != nil {
			t.Fatal("unexpected observer")
		}
	}); n != 0 {
		t.Fatalf("Active() allocates %v times per run on the disabled path", n)
	}
}
