package catalog

import (
	"errors"
	"fmt"
	"testing"

	"lagraph/internal/lagraph"
)

// ingestDelta pushes one tracked insert-only batch through the staged
// protocol, exactly as the service's edges handler does.
func ingestDelta(t *testing.T, e *Entry, src, dst []int, removals int) {
	t.Helper()
	if err := e.Ingest(func(g *lagraph.Graph) (bool, error) {
		e.StageDelta(src, dst, removals)
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestResultCacheLifecycle(t *testing.T) {
	c := New()
	e, err := c.Add("g", testGraph(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.PriorResult("cc"); ok {
		t.Fatal("fresh entry should have no cached results")
	}
	e.StoreResult("cc", CachedResult{Value: "v1", Generation: e.Generation(), FullIters: 7})
	r, ok := e.PriorResult("cc")
	if !ok || r.Value != "v1" || r.FullIters != 7 {
		t.Fatalf("PriorResult = %+v, %v", r, ok)
	}

	// Ingest does NOT drop the result — it goes stale (generation behind).
	ingestDelta(t, e, []int{1}, []int{2}, 0)
	r, ok = e.PriorResult("cc")
	if !ok || r.Generation >= e.Generation() {
		t.Fatalf("after ingest: result should survive stale, got %+v ok=%v (gen now %d)", r, ok, e.Generation())
	}

	// A store tagged with an older generation must not regress the cache.
	e.StoreResult("cc", CachedResult{Value: "v2", Generation: e.Generation()})
	e.StoreResult("cc", CachedResult{Value: "old", Generation: 0})
	if r, _ := e.PriorResult("cc"); r.Value != "v2" {
		t.Fatalf("stale store regressed the cache to %v", r.Value)
	}
}

func TestResultCacheEviction(t *testing.T) {
	c := New()
	e, err := c.Add("g", testGraph(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	// Fill the cache with ascending generations; the next insert must
	// evict the stalest key (k0), not the newcomer.
	for i := 0; i < maxCachedResults; i++ {
		e.StoreResult(fmt.Sprintf("k%d", i), CachedResult{Value: i, Generation: uint64(i + 1)})
	}
	e.StoreResult("fresh", CachedResult{Value: "f", Generation: uint64(maxCachedResults + 1)})
	if _, ok := e.PriorResult("k0"); ok {
		t.Fatal("stalest entry k0 should have been evicted")
	}
	if _, ok := e.PriorResult("fresh"); !ok {
		t.Fatal("newly stored entry missing after eviction")
	}
	for i := 1; i < maxCachedResults; i++ {
		if _, ok := e.PriorResult(fmt.Sprintf("k%d", i)); !ok {
			t.Fatalf("k%d evicted, want only k0 gone", i)
		}
	}
	// Ties on generation break by key order: with every generation equal,
	// the lexicographically first key goes.
	c2 := New()
	e2, err := c2.Add("g", testGraph(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxCachedResults; i++ {
		e2.StoreResult(fmt.Sprintf("k%d", i), CachedResult{Generation: 5})
	}
	e2.StoreResult("zz", CachedResult{Generation: 5})
	if _, ok := e2.PriorResult("k0"); ok {
		t.Fatal("tie-break should evict the lexicographically first key k0")
	}
}

func TestDeltaSinceCoverage(t *testing.T) {
	c := New()
	e, err := c.Add("g", testGraph(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	base := e.Generation()

	// Empty window is trivially tracked.
	if d := e.DeltaSince(base); d.Unknown || len(d.AddSrc) != 0 {
		t.Fatalf("empty window: %+v", d)
	}
	// A future generation cannot be covered.
	if d := e.DeltaSince(base + 1); !d.Unknown {
		t.Fatal("future window should be Unknown")
	}

	ingestDelta(t, e, []int{1, 2}, []int{3, 4}, 0)
	ingestDelta(t, e, []int{5}, []int{6}, 0)
	d := e.DeltaSince(base)
	if d.Unknown || d.Removals != 0 || len(d.AddSrc) != 3 {
		t.Fatalf("two-batch window: %+v", d)
	}
	if d.AddSrc[2] != 5 || d.AddDst[2] != 6 {
		t.Fatalf("aggregation out of order: %+v", d)
	}
	// Partial window: only the second batch.
	if d := e.DeltaSince(base + 1); d.Unknown || len(d.AddSrc) != 1 || d.AddSrc[0] != 5 {
		t.Fatalf("partial window: %+v", d)
	}

	// Removals are tracked, and InsertOnly rejects the window.
	ingestDelta(t, e, nil, nil, 2)
	d = e.DeltaSince(base)
	if d.Unknown || d.Removals != 2 || d.InsertOnly() {
		t.Fatalf("removal window: %+v", d)
	}
}

func TestDeltaInvalidation(t *testing.T) {
	c := New()
	e, err := c.Add("g", testGraph(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	base := e.Generation()
	ingestDelta(t, e, []int{1}, []int{2}, 0)

	// An untracked Update breaks the chain: every window starting before
	// now is Unknown, including ones that were previously covered.
	if err := e.Update(func(g *lagraph.Graph) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if d := e.DeltaSince(base); !d.Unknown {
		t.Fatal("window spanning an Update should be Unknown")
	}
	if d := e.DeltaSince(e.Generation()); d.Unknown {
		t.Fatal("empty window after Update should still be tracked")
	}

	// Tracking resumes for batches after the break.
	mark := e.Generation()
	ingestDelta(t, e, []int{7}, []int{8}, 0)
	if d := e.DeltaSince(mark); d.Unknown || len(d.AddSrc) != 1 {
		t.Fatalf("post-Update window: %+v", d)
	}
	if d := e.DeltaSince(base); !d.Unknown {
		t.Fatal("pre-Update window must stay Unknown after tracking resumes")
	}

	// An ingest that mutates but does not stage (or fails mid-apply)
	// invalidates too.
	mark = e.Generation()
	if err := e.Ingest(func(g *lagraph.Graph) (bool, error) { return true, nil }); err != nil {
		t.Fatal(err)
	}
	if d := e.DeltaSince(mark); !d.Unknown {
		t.Fatal("unstaged mutation should invalidate the log")
	}
	mark = e.Generation()
	wantErr := errors.New("apply failed")
	if err := e.Ingest(func(g *lagraph.Graph) (bool, error) {
		e.StageDelta([]int{1}, []int{2}, 0)
		return true, wantErr
	}); !errors.Is(err, wantErr) {
		t.Fatal(err)
	}
	if d := e.DeltaSince(mark); !d.Unknown {
		t.Fatal("partially applied batch must invalidate, not commit")
	}
}

func TestDeltaLogOverflow(t *testing.T) {
	c := New()
	e, err := c.Add("g", testGraph(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	base := e.Generation()
	big := make([]int, maxDeltaOps/2)
	ingestDelta(t, e, big, big, 0)
	mid := e.Generation()
	ingestDelta(t, e, big, big, 0)
	// Third big batch overflows the cap: the oldest records drop and the
	// floor rises past base.
	ingestDelta(t, e, big, big, 0)
	if d := e.DeltaSince(base); !d.Unknown {
		t.Fatal("window below the raised floor should be Unknown")
	}
	if d := e.DeltaSince(mid); d.Unknown {
		t.Fatal("window inside the retained suffix should stay tracked")
	}
}
