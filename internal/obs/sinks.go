package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
)

// Counters is the aggregate sink: lock-free atomic tallies with no
// per-record allocation, cheap enough to leave enabled around benchmark
// timing loops. Use Snapshot to read a consistent-enough view (each
// counter is individually atomic; the set is not a transaction).
type Counters struct {
	Ops      atomic.Int64 // kernel-level operations observed
	Iters    atomic.Int64 // algorithm iterations observed
	Waits    atomic.Int64 // pending-tuple assemblies
	Pending  atomic.Int64 // pending tuples consumed by assemblies
	Zombies  atomic.Int64 // zombie entries reclaimed by assemblies
	EstFlops atomic.Int64 // summed work estimates across ops
	NnzOut   atomic.Int64 // summed raw output entries across ops
	DurNanos atomic.Int64 // summed op durations

	// Per-kernel op counts.
	Gustavson atomic.Int64
	Dot       atomic.Int64
	Heap      atomic.Int64
	Push      atomic.Int64
	Pull      atomic.Int64

	// Bitmap counts writes whose result took the dense route end to end:
	// computed as dense lanes and adopted as the output's dense (bitmap)
	// form, OpRecord.Write == "dense".
	Bitmap atomic.Int64
}

// Now implements Observer via the package clock.
func (c *Counters) Now() int64 { return Clock() }

// Op implements Observer.
func (c *Counters) Op(r OpRecord) {
	c.Ops.Add(1)
	c.EstFlops.Add(r.EstFlops)
	c.NnzOut.Add(int64(r.NnzOut))
	c.DurNanos.Add(r.DurNanos)
	if r.Write == "dense" {
		c.Bitmap.Add(1)
	}
	switch r.Kernel {
	case "gustavson":
		c.Gustavson.Add(1)
	case "dot":
		c.Dot.Add(1)
	case "heap":
		c.Heap.Add(1)
	case "push":
		c.Push.Add(1)
	case "pull":
		c.Pull.Add(1)
	case "assemble":
		c.Waits.Add(1)
		c.Pending.Add(int64(r.Pending))
		c.Zombies.Add(int64(r.Zombies))
	}
}

// Iter implements Observer.
func (c *Counters) Iter(IterRecord) { c.Iters.Add(1) }

// CounterSnapshot is a plain-integer copy of Counters, JSON-marshalable
// and subtractable (benchmarks diff snapshots around a timing region).
type CounterSnapshot struct {
	Ops       int64 `json:"ops"`
	Iters     int64 `json:"iters,omitempty"`
	Waits     int64 `json:"waits,omitempty"`
	Pending   int64 `json:"pending,omitempty"`
	Zombies   int64 `json:"zombies,omitempty"`
	EstFlops  int64 `json:"est_flops,omitempty"`
	NnzOut    int64 `json:"nnz_out,omitempty"`
	DurNanos  int64 `json:"dur_nanos,omitempty"`
	Gustavson int64 `json:"gustavson,omitempty"`
	Dot       int64 `json:"dot,omitempty"`
	Heap      int64 `json:"heap,omitempty"`
	Push      int64 `json:"push,omitempty"`
	Pull      int64 `json:"pull,omitempty"`
	Bitmap    int64 `json:"bitmap,omitempty"`
}

// Snapshot reads every counter.
func (c *Counters) Snapshot() CounterSnapshot {
	return CounterSnapshot{
		Ops:       c.Ops.Load(),
		Iters:     c.Iters.Load(),
		Waits:     c.Waits.Load(),
		Pending:   c.Pending.Load(),
		Zombies:   c.Zombies.Load(),
		EstFlops:  c.EstFlops.Load(),
		NnzOut:    c.NnzOut.Load(),
		DurNanos:  c.DurNanos.Load(),
		Gustavson: c.Gustavson.Load(),
		Dot:       c.Dot.Load(),
		Heap:      c.Heap.Load(),
		Push:      c.Push.Load(),
		Pull:      c.Pull.Load(),
		Bitmap:    c.Bitmap.Load(),
	}
}

// Sub returns s - prev, field-wise: the activity between two snapshots.
func (s CounterSnapshot) Sub(prev CounterSnapshot) CounterSnapshot {
	return CounterSnapshot{
		Ops:       s.Ops - prev.Ops,
		Iters:     s.Iters - prev.Iters,
		Waits:     s.Waits - prev.Waits,
		Pending:   s.Pending - prev.Pending,
		Zombies:   s.Zombies - prev.Zombies,
		EstFlops:  s.EstFlops - prev.EstFlops,
		NnzOut:    s.NnzOut - prev.NnzOut,
		DurNanos:  s.DurNanos - prev.DurNanos,
		Gustavson: s.Gustavson - prev.Gustavson,
		Dot:       s.Dot - prev.Dot,
		Heap:      s.Heap - prev.Heap,
		Push:      s.Push - prev.Push,
		Pull:      s.Pull - prev.Pull,
		Bitmap:    s.Bitmap - prev.Bitmap,
	}
}

// Trace is the bounded ring-buffer sink: it retains the most recent
// capacity op records and capacity iter records, counting what it had to
// drop. A mutex serializes writers; record emission is already off the
// kernels' parallel inner loops, so contention is per-op, not per-entry.
type Trace struct {
	mu           sync.Mutex
	ops          []OpRecord   //grblint:guardedby mu
	iters        []IterRecord //grblint:guardedby mu
	opNext       int          //grblint:guardedby mu // ring write position once len(ops) == cap
	iterNext     int          //grblint:guardedby mu
	droppedOps   int64        //grblint:guardedby mu
	droppedIters int64        //grblint:guardedby mu
	capacity     int          // immutable after NewTrace
}

// DefaultTraceCapacity bounds a Trace built with NewTrace(0).
const DefaultTraceCapacity = 4096

// NewTrace creates a trace sink retaining the last capacity records of
// each kind (capacity <= 0 selects DefaultTraceCapacity).
func NewTrace(capacity int) *Trace {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Trace{capacity: capacity}
}

// Now implements Observer via the package clock.
func (t *Trace) Now() int64 { return Clock() }

// Op implements Observer.
func (t *Trace) Op(r OpRecord) {
	t.mu.Lock()
	if len(t.ops) < t.capacity {
		t.ops = append(t.ops, r)
	} else {
		t.ops[t.opNext] = r
		t.opNext = (t.opNext + 1) % t.capacity
		t.droppedOps++
	}
	t.mu.Unlock()
}

// Iter implements Observer.
func (t *Trace) Iter(r IterRecord) {
	t.mu.Lock()
	if len(t.iters) < t.capacity {
		t.iters = append(t.iters, r)
	} else {
		t.iters[t.iterNext] = r
		t.iterNext = (t.iterNext + 1) % t.capacity
		t.droppedIters++
	}
	t.mu.Unlock()
}

// Ops returns the retained op records, oldest first.
func (t *Trace) Ops() []OpRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]OpRecord, 0, len(t.ops))
	out = append(out, t.ops[t.opNext:]...)
	out = append(out, t.ops[:t.opNext]...)
	return out
}

// Iters returns the retained iter records, oldest first.
func (t *Trace) Iters() []IterRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]IterRecord, 0, len(t.iters))
	out = append(out, t.iters[t.iterNext:]...)
	out = append(out, t.iters[:t.iterNext]...)
	return out
}

// TraceDocument is the serialized form a Trace writes: the schema of
// cmd/lagraph -trace output, which cmd/lagraph's TestRunTrace reads back.
type TraceDocument struct {
	Schema       string       `json:"schema"` // "lagraph-trace/1"
	Ops          []OpRecord   `json:"ops"`
	Iters        []IterRecord `json:"iters"`
	DroppedOps   int64        `json:"dropped_ops,omitempty"`
	DroppedIters int64        `json:"dropped_iters,omitempty"`
}

// TraceSchema identifies the JSON trace format.
const TraceSchema = "lagraph-trace/1"

// Document snapshots the trace into its serialized form.
func (t *Trace) Document() TraceDocument {
	doc := TraceDocument{
		Schema: TraceSchema,
		Ops:    t.Ops(),
		Iters:  t.Iters(),
	}
	t.mu.Lock()
	doc.DroppedOps = t.droppedOps
	doc.DroppedIters = t.droppedIters
	t.mu.Unlock()
	return doc
}

// WriteJSON writes the trace as an indented JSON document.
func (t *Trace) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t.Document())
}
