package catalog

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lagraph/internal/gen"
	"lagraph/internal/grb"
	"lagraph/internal/lagraph"
	"lagraph/internal/leakcheck"
)

// testGraph builds a deterministic undirected power-law graph.
func testGraph(t testing.TB, scale int) *lagraph.Graph {
	t.Helper()
	n := 1 << scale
	e := gen.PowerLaw(n, 8*n, 1.8, gen.Config{Seed: 7, Undirected: true, NoSelfLoops: true})
	g, err := lagraph.NewGraph(e.Matrix(), lagraph.Undirected)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRegistry(t *testing.T) {
	c := New()
	g := testGraph(t, 4)
	if _, err := c.Add("g", g); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Add("g", g); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate Add: want ErrExists, got %v", err)
	}
	if _, err := c.Get("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get missing: want ErrNotFound, got %v", err)
	}
	if _, err := c.Add("h", testGraph(t, 3)); err != nil {
		t.Fatal(err)
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "g" || names[1] != "h" {
		t.Fatalf("Names = %v, want [g h]", names)
	}
	if err := c.Drop("h"); err != nil {
		t.Fatal(err)
	}
	if err := c.Drop("h"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double Drop: want ErrNotFound, got %v", err)
	}
	if s := c.Stats(); s.Graphs != 1 {
		t.Fatalf("Stats.Graphs = %d, want 1", s.Graphs)
	}
}

func TestWarmLifecycle(t *testing.T) {
	c := New()
	e, err := c.Add("g", testGraph(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	p := e.Properties() // warms
	if !p.Warm {
		t.Fatal("entry not warm after Properties")
	}
	if p.Generation != 0 {
		t.Fatalf("fresh generation = %d, want 0", p.Generation)
	}
	if !p.Symmetric {
		t.Fatal("undirected generated graph should be symmetric")
	}
	if c.Stats().Warms != 1 {
		t.Fatalf("Warms = %d, want 1", c.Stats().Warms)
	}

	// A mutation invalidates and bumps the generation.
	before := p.NEdges
	err = e.Update(func(g *lagraph.Graph) error {
		// Both directions, to keep the graph symmetric.
		if err := g.A.SetElement(0, 9, 1); err != nil {
			return err
		}
		return g.A.SetElement(9, 0, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.Generation() != 1 {
		t.Fatalf("generation after Update = %d, want 1", e.Generation())
	}
	p = e.Properties() // Update assembled before publishing: no re-warm
	if !p.Warm || p.Generation != 1 {
		t.Fatalf("after update: warm=%v gen=%d", p.Warm, p.Generation)
	}
	if p.NEdges < before {
		t.Fatalf("NEdges shrank: %d → %d", before, p.NEdges)
	}
	if c.Stats().Warms != 1 {
		t.Fatalf("Warms = %d, want 1", c.Stats().Warms)
	}
}

// TestLoadReplaceAndBirthHook: Load with replace keeps the Entry identity
// and bumps the generation, refuses an existing name without replace, and
// runs the birth hook exactly once per load with the new graph already in
// place — where the service stamps the journal mark.
func TestLoadReplaceAndBirthHook(t *testing.T) {
	c := New()
	births := 0
	stamp := func(mark uint64) func(*Entry) {
		return func(e *Entry) {
			births++
			e.SetJournalSeq(mark)
		}
	}
	e1, err := c.Load("g", testGraph(t, 3), true, stamp(7))
	if err != nil {
		t.Fatal(err)
	}
	if births != 1 || e1.JournalSeq() != 7 {
		t.Fatalf("new entry: %d births, journal mark %d, want 1 and 7", births, e1.JournalSeq())
	}
	n1 := e1.Properties().N
	if _, err := c.Load("g", testGraph(t, 4), false, stamp(8)); !errors.Is(err, ErrExists) || births != 1 {
		t.Fatalf("load over an existing name without replace: err %v, %d births", err, births)
	}
	e2, err := c.Load("g", testGraph(t, 4), true, stamp(9))
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Fatal("replace of an existing name must keep the Entry identity")
	}
	var info SnapshotInfo
	if info, err = e2.Snapshot(io.Discard); err != nil {
		t.Fatal(err)
	}
	if births != 2 || info.Journal != 9 || info.N == n1 || info.Generation == 0 {
		t.Fatalf("replace: %d births, snapshot pins %+v (old n %d)", births, info, n1)
	}
}

// TestCanceledQueryLeavesCacheIntact is the acceptance criterion: a
// canceled query returns an error matching grb.ErrCanceled within one
// iteration and must not corrupt the entry's cached properties — the next
// uncanceled query over the same warm entry returns the checksum-identical
// result of a never-canceled run.
func TestCanceledQueryLeavesCacheIntact(t *testing.T) {
	c := New()
	e, err := c.Add("g", testGraph(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	want := bfsChecksum(t, e) // clean baseline, warms the entry

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already done: the first iteration check must fire
	err = e.View(func(g *lagraph.Graph) error {
		_, err := lagraph.BFSLevels(g, 0, lagraph.WithContext(ctx))
		return err
	})
	if !errors.Is(err, grb.ErrCanceled) {
		t.Fatalf("canceled BFS: want grb.ErrCanceled, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled BFS: cause not preserved: %v", err)
	}

	if got := bfsChecksum(t, e); got != want {
		t.Fatalf("cached properties corrupted by canceled query: checksum %s != %s", got, want)
	}
	if p := e.Properties(); !p.Warm || p.Generation != 0 {
		t.Fatalf("cancellation must not invalidate: warm=%v gen=%d", p.Warm, p.Generation)
	}
}

// bfsChecksum runs BFS from vertex 0 under View and digests the result.
func bfsChecksum(t testing.TB, e *Entry) string {
	t.Helper()
	var sum string
	err := e.View(func(g *lagraph.Graph) error {
		levels, err := lagraph.BFSLevels(g, 0)
		if err != nil {
			return err
		}
		is, xs := levels.ExtractTuples()
		sum = fmt.Sprintf("%d/%v/%v", levels.Nvals(), is[len(is)-1], xs[len(xs)-1])
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

// TestConcurrentReadersOneWriter is the -race stress test: 8+ reader
// goroutines run queries through View while one writer keeps mutating and
// invalidating through Update. Readers assert that within one generation
// results are bitwise identical to a serial run of the same generation.
func TestConcurrentReadersOneWriter(t *testing.T) {
	leakcheck.Check(t)
	const (
		readers  = 8
		queries  = 24 // per reader
		writes   = 10
		srcCount = 4
	)
	c := New()
	e, err := c.Add("g", testGraph(t, 8))
	if err != nil {
		t.Fatal(err)
	}

	// serial[gen][src] is the reference checksum, computed on first use
	// under a lock (serial execution by construction).
	type key struct {
		gen uint64
		src int
	}
	var refMu sync.Mutex
	reference := map[key]string{}

	checksum := func(g *lagraph.Graph, src int) (string, error) {
		levels, err := lagraph.BFSLevels(g, src)
		if err != nil {
			return "", err
		}
		is, xs := levels.ExtractTuples()
		h := uint64(1469598103934665603)
		for k := range is {
			h = (h ^ uint64(is[k])) * 1099511628211
			h = (h ^ uint64(uint32(xs[k]))) * 1099511628211
		}
		return fmt.Sprintf("%d:%016x", levels.Nvals(), h), nil
	}

	var wg sync.WaitGroup
	errc := make(chan error, readers+1)

	// Writer: mutate + invalidate, with pauses so readers see both warm
	// hits and cold re-warms across generations.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for w := 0; w < writes; w++ {
			err := e.Update(func(g *lagraph.Graph) error {
				i, j := (w*17+1)%g.N(), (w*31+3)%g.N()
				if i == j {
					j = (j + 1) % g.N()
				}
				if err := g.A.SetElement(i, j, 1); err != nil {
					return err
				}
				return g.A.SetElement(j, i, 1)
			})
			if err != nil {
				errc <- fmt.Errorf("writer: %v", err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for q := 0; q < queries; q++ {
				src := (r + q) % srcCount
				var got string
				var gen uint64
				err := e.View(func(g *lagraph.Graph) error {
					gen = e.Generation()
					var err error
					got, err = checksum(g, src)
					return err
				})
				if err != nil {
					errc <- fmt.Errorf("reader %d: %v", r, err)
					return
				}
				// Compare against the serial reference for this generation;
				// the first arrival establishes it.
				refMu.Lock()
				want, seen := reference[key{gen, src}]
				if !seen {
					reference[key{gen, src}] = got
				}
				refMu.Unlock()
				if seen && want != got {
					errc <- fmt.Errorf("reader %d: gen %d src %d: checksum %s != serial %s",
						r, gen, src, got, want)
					return
				}
			}
		}(r)
	}

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if s := c.Stats(); s.Updates != writes {
		t.Fatalf("Updates = %d, want %d", s.Updates, writes)
	}
}

// TestConcurrentReadersOnColdEntry: every cached graph property is built
// lazily under View's shared lock by the reader that asks for it. Each row
// reads one property's consumer with eight readers released together right
// after an Ingest left the entry cold; they all miss, build and store it.
// Under -race that is the test of the property's publication, and every
// answer must be bitwise the one a graph with no cache computes.
func TestConcurrentReadersOnColdEntry(t *testing.T) {
	leakcheck.Check(t)
	const readers = 8
	var tcReads atomic.Int64
	viewing := func(read func(g *lagraph.Graph) (any, error)) func(e *Entry) (string, error) {
		return func(e *Entry) (string, error) {
			var out string
			err := e.View(func(g *lagraph.Graph) error {
				v, err := read(g)
				if err == nil {
					out = digest(v)
				}
				return err
			})
			return out, err
		}
	}
	rows := []struct {
		name string
		kind lagraph.Kind
		read func(e *Entry) (string, error)
	}{
		{"pagerank/out-degree", lagraph.Undirected, viewing(func(g *lagraph.Graph) (any, error) {
			r, err := lagraph.PageRankWith(g)
			if err != nil {
				return nil, err
			}
			return r.Rank, nil
		})},
		{"fastsv/pattern", lagraph.Undirected, viewing(func(g *lagraph.Graph) (any, error) {
			// FastSV multiplies A's pattern through A itself: the readers
			// race on the column form of A its pull reads.
			return lagraph.ConnectedComponentsFastSV(g)
		})},
		{"tc-auto+sandia-ll-nosort/triangle", lagraph.Undirected, viewing(func(g *lagraph.Graph) (any, error) {
			// Readers alternate two plans, so a miss and a key replacement
			// race on the one prepared triangle the graph keeps.
			if tcReads.Add(1)%2 == 0 {
				return lagraph.TriangleCount(g, lagraph.TCAuto)
			}
			return lagraph.TriangleCount(g, lagraph.TCSandiaLL, lagraph.WithPresort(lagraph.TCNoSort))
		})},
		{"properties/self-loops+symmetry", lagraph.Undirected, func(e *Entry) (string, error) {
			p := e.Properties()
			return fmt.Sprint(p.NSelfLoops, p.Symmetric), nil
		}},
		{"directed/transpose+in-degree", lagraph.Directed, viewing(func(g *lagraph.Graph) (any, error) {
			// The in-degrees are a column reduce of a pattern each reader
			// builds from A, so they read only A's shared state.
			at := grb.MustMatrix[float64](g.N(), g.N())
			if err := grb.Transpose[float64, bool](at, nil, nil, g.A, nil); err != nil {
				return nil, err
			}
			p := grb.MustMatrix[int64](g.N(), g.N())
			if err := grb.ApplyMatrix[float64, int64, bool](p, nil, nil, grb.One[float64, int64](), g.A, nil); err != nil {
				return nil, err
			}
			in := grb.MustVector[int64](g.N())
			if err := grb.ReduceMatrixToVector[int64, bool](in, nil, nil, grb.PlusMonoid[int64](), p, grb.DescT0); err != nil {
				return nil, err
			}
			return digest(at) + digest(in), nil
		})},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			// The reference reads a fresh graph that never held a cache.
			ref, err := New().Add("ref", coldTestGraph(t, row.kind, true))
			if err != nil {
				t.Fatal(err)
			}
			want, err := row.read(ref)
			if err != nil {
				t.Fatal(err)
			}

			e, err := New().Add("g", coldTestGraph(t, row.kind, false))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := row.read(e); err != nil { // fill the cache the batch must drop
				t.Fatal(err)
			}
			if err := e.Ingest(func(g *lagraph.Graph) (bool, error) { return true, coldTestBatch(g) }); err != nil {
				t.Fatal(err)
			}
			start := make(chan struct{})
			got := make([]string, readers)
			errs := make([]error, readers)
			var wg sync.WaitGroup
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					<-start
					got[r], errs[r] = row.read(e)
				}(r)
			}
			close(start)
			wg.Wait()
			for r := range got {
				if errs[r] != nil {
					t.Fatalf("reader %d: %v", r, errs[r])
				}
				if got[r] != want {
					t.Fatalf("reader %d: %.80s differs from an uncached run's %.80s", r, got[r], want)
				}
			}
		})
	}
}

// coldTestGraph builds a weighted RMAT graph of the given kind, with
// coldTestBatch already applied (and assembled) when batched is set.
func coldTestGraph(t *testing.T, kind lagraph.Kind, batched bool) *lagraph.Graph {
	t.Helper()
	el := gen.RMAT(9, 8, gen.Config{Seed: 11, Undirected: kind == lagraph.Undirected, NoSelfLoops: true, MinWeight: 1, MaxWeight: 10})
	g := lagraph.FromEdgeList(el, kind)
	if batched {
		if err := coldTestBatch(g); err != nil {
			t.Fatal(err)
		}
		g.A.Wait()
	}
	return g
}

// coldTestBatch lands a few weighted edges, a self-loop among them, as
// pending tuples; undirected graphs get both directions.
func coldTestBatch(g *lagraph.Graph) error {
	is, js, xs := []int{3, 5, 40, 200}, []int{5, 5, 301, 7}, []float64{0.5, 2, 9, 1.5}
	if g.Kind == lagraph.Undirected {
		is, js, xs = append(is, js...), append(js, is...), append(xs, xs...)
	}
	return g.A.SetElements(is, js, xs, nil)
}

// digest renders a result with every value in full, so equal digests are
// equal bits.
func digest(v any) string {
	switch v := v.(type) {
	case *grb.Vector[float64]:
		is, xs := v.ExtractTuples()
		return fmt.Sprint(is, xs)
	case *grb.Vector[int64]:
		is, xs := v.ExtractTuples()
		return fmt.Sprint(is, xs)
	case *grb.Matrix[float64]:
		is, js, xs := v.ExtractTuples()
		return fmt.Sprint(is, js, xs)
	}
	return fmt.Sprint(v)
}

// TestSnapshotterVsReadersVsWriter is the persistence -race stress test:
// a background snapshotter repeatedly serializes the entry while 8
// readers query and 1 writer mutates. The durability contract under
// test: a snapshot pinned at generation g is bitwise identical to every
// other snapshot of generation g (the first arrival is the serial
// reference), no matter how many queries share the read lock while the
// bytes stream out.
func TestSnapshotterVsReadersVsWriter(t *testing.T) {
	leakcheck.Check(t)
	const (
		readers = 8
		queries = 16 // per reader
		writes  = 8
		snaps   = 40
	)
	c := New()
	e, err := c.Add("g", testGraph(t, 7))
	if err != nil {
		t.Fatal(err)
	}

	var refMu sync.Mutex
	reference := map[uint64][]byte{} // generation → first snapshot bytes

	var wg sync.WaitGroup
	errc := make(chan error, readers+2)
	done := make(chan struct{})

	// Writer.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for w := 0; w < writes; w++ {
			err := e.Update(func(g *lagraph.Graph) error {
				i, j := (w*13+2)%g.N(), (w*29+5)%g.N()
				if i == j {
					j = (j + 1) % g.N()
				}
				if err := g.A.SetElement(i, j, 1); err != nil {
					return err
				}
				return g.A.SetElement(j, i, 1)
			})
			if err != nil {
				errc <- fmt.Errorf("writer: %v", err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Background snapshotter: keeps serializing until the writer is done,
	// then takes a final snapshot of the settled state.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for s := 0; ; s++ {
			var buf bytes.Buffer
			info, err := e.Snapshot(&buf)
			if err != nil {
				errc <- fmt.Errorf("snapshotter: %v", err)
				return
			}
			refMu.Lock()
			want, seen := reference[info.Generation]
			if !seen {
				reference[info.Generation] = append([]byte(nil), buf.Bytes()...)
			}
			refMu.Unlock()
			if seen && !bytes.Equal(want, buf.Bytes()) {
				errc <- fmt.Errorf("snapshotter: generation %d produced %d bytes != serial reference %d bytes",
					info.Generation, buf.Len(), len(want))
				return
			}
			select {
			case <-done:
				if s >= snaps {
					return
				}
			default:
			}
		}
	}()

	// Readers: queries share the lock with the streaming snapshotter.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for q := 0; q < queries; q++ {
				err := e.View(func(g *lagraph.Graph) error {
					levels, err := lagraph.BFSLevels(g, (r+q)%g.N())
					if err != nil {
						return err
					}
					if levels.Nvals() == 0 {
						return fmt.Errorf("empty BFS on populated graph")
					}
					return nil
				})
				if err != nil {
					errc <- fmt.Errorf("reader %d: %v", r, err)
					return
				}
			}
		}(r)
	}

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// Final determinism check: two serial snapshots of the settled entry
	// are bitwise identical and match the stress-phase reference for the
	// final generation, if one was captured.
	var a, b bytes.Buffer
	infoA, err := e.Snapshot(&a)
	if err != nil {
		t.Fatal(err)
	}
	infoB, err := e.Snapshot(&b)
	if err != nil {
		t.Fatal(err)
	}
	if infoA.Generation != infoB.Generation || !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("serial snapshots of an idle entry differ")
	}
	if infoA.Generation != uint64(writes) {
		t.Fatalf("final generation %d, want %d", infoA.Generation, writes)
	}
	if ref, ok := reference[infoA.Generation]; ok && !bytes.Equal(ref, a.Bytes()) {
		t.Fatal("stress-phase snapshot of final generation differs from idle snapshot")
	}
	if g2, err := lagraph.ReadGraph(bytes.NewReader(a.Bytes())); err != nil {
		t.Fatalf("snapshot does not decode: %v", err)
	} else if g2.N() != infoA.N || g2.NEdges() != infoA.NEdges {
		t.Fatalf("decoded snapshot shape %d/%d contradicts SnapshotInfo %d/%d",
			g2.N(), g2.NEdges(), infoA.N, infoA.NEdges)
	}
}
