package lagraph

// Algorithm-level half of the observation contract: a traced BFS returns
// bitwise-identical levels to an untraced one at both parallelism
// extremes, and the trace of a direction-optimized BFS over a power-law
// graph carries what the CI smoke job asserts — per-iteration frontier
// sizes and at least one push→pull switch.

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"

	"lagraph/internal/gen"
	"lagraph/internal/grb"
	"lagraph/internal/obs"
)

func powerLawGraph(n, m int, seed int64) *Graph {
	return FromEdgeList(
		gen.PowerLaw(n, m, 1.8, gen.Config{Seed: seed, Undirected: true, NoSelfLoops: true}),
		Undirected)
}

func bfsLevelBytes(t *testing.T, g *Graph, p int, traced bool) []byte {
	t.Helper()
	if traced {
		prev := obs.Set(obs.NewTrace(0))
		defer obs.Set(prev)
	}
	prevP := grb.SetParallelism(p)
	defer grb.SetParallelism(prevP)
	levels, err := BFSLevels(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := grb.SerializeVector(&buf, levels); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTracedBFSBitwiseIdentical: tracing must not perturb the traversal.
func TestTracedBFSBitwiseIdentical(t *testing.T) {
	g := powerLawGraph(1<<11, 1<<15, 81)
	base := bfsLevelBytes(t, g, 1, false)
	for _, c := range []struct {
		name   string
		p      int
		traced bool
	}{
		{"p1 traced", 1, true},
		{"p8 untraced", 8, false},
		{"p8 traced", 8, true},
	} {
		if got := bfsLevelBytes(t, g, c.p, c.traced); !bytes.Equal(base, got) {
			t.Errorf("%s: BFS levels differ from p1 untraced (%d vs %d bytes)",
				c.name, len(got), len(base))
		}
	}
}

// TestTracedFullVectorKernelsBitwiseIdentical: PageRank and FastSV run
// every iteration on the dense result route — pooled lanes, the pull
// kernel writing its result lanes from several workers. Ranks, labels and
// iteration counts must not depend on the worker count or on an observer,
// on a skewed graph and on the lattice.
func TestTracedFullVectorKernelsBitwiseIdentical(t *testing.T) {
	kernels := []struct {
		name string
		run  func(g *Graph) (*bytes.Buffer, int, error)
	}{
		{"pagerank", func(g *Graph) (*bytes.Buffer, int, error) {
			res, err := PageRankWith(g)
			if err != nil {
				return nil, 0, err
			}
			return tupleBytes(res.Rank), res.Iterations, nil
		}},
		{"cc-fastsv", func(g *Graph) (*bytes.Buffer, int, error) {
			res, err := ConnectedComponentsWith(g)
			if err != nil {
				return nil, 0, err
			}
			return tupleBytes(res.Labels), res.Iterations, nil
		}},
	}
	graphs := []struct {
		name string
		g    *Graph
	}{
		{"powerlaw", powerLawGraph(1<<11, 1<<15, 83)},
		{"lattice", unweightedLattice(48)},
	}
	for _, gr := range graphs {
		for _, k := range kernels {
			var base []byte
			var baseIters int
			for _, c := range []struct {
				name   string
				p      int
				traced bool
			}{{"p1 untraced", 1, false}, {"p1 traced", 1, true}, {"p8 untraced", 8, false}, {"p8 traced", 8, true}} {
				var tr *obs.Trace
				if c.traced {
					tr = obs.NewTrace(0)
				}
				prev := obs.Set(obsOrNil(tr))
				prevP := grb.SetParallelism(c.p)
				buf, iters, err := k.run(gr.g)
				grb.SetParallelism(prevP)
				obs.Set(prev)
				if err != nil {
					t.Fatal(err)
				}
				if base == nil {
					base, baseIters = buf.Bytes(), iters
					continue
				}
				if iters != baseIters || !bytes.Equal(buf.Bytes(), base) {
					t.Errorf("%s on %s, %s: %d iterations and %d bytes differ from p1 untraced (%d iterations, %d bytes)",
						k.name, gr.name, c.name, iters, buf.Len(), baseIters, len(base))
				}
				if c.traced && len(tr.Iters()) != iters {
					t.Errorf("%s on %s, %s: %d iteration records for %d iterations", k.name, gr.name, c.name, len(tr.Iters()), iters)
				}
			}
		}
	}
}

// TestConcurrentFullVectorKernelsShareLanes: queries running at once on one
// graph draw their result lanes from one pool and hand them back as their
// outputs adopt new ones. A lane released while anything still reads it, or
// handed out dirty, shows up as a wrong answer here (and as a report under
// -race).
func TestConcurrentFullVectorKernelsShareLanes(t *testing.T) {
	g := powerLawGraph(1<<10, 1<<14, 85)
	g.A.Materialize()
	g.OutDegree().Wait()
	rank := func() []byte {
		res, err := PageRankWith(g)
		if err != nil {
			t.Error(err)
			return nil
		}
		return tupleBytes(res.Rank).Bytes()
	}
	labels := func() []byte {
		res, err := ConnectedComponentsWith(g)
		if err != nil {
			t.Error(err)
			return nil
		}
		return tupleBytes(res.Labels).Bytes()
	}
	wantRank, wantLabels := rank(), labels()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				if (w+i)%2 == 0 {
					if !bytes.Equal(rank(), wantRank) {
						t.Errorf("worker %d round %d: PageRank differs from the serial run", w, i)
					}
				} else if !bytes.Equal(labels(), wantLabels) {
					t.Errorf("worker %d round %d: FastSV labels differ from the serial run", w, i)
				}
			}
		}()
	}
	wg.Wait()
}

// tupleBytes is a vector's entries as fixed-width bytes. (Not
// grb.SerializeVector: gob numbers types in the order a process first
// encodes them, and the golden frames pin the order the suite had.)
func tupleBytes[T any](v *grb.Vector[T]) *bytes.Buffer {
	var buf bytes.Buffer
	is, xs := v.ExtractTuples()
	for k, i := range is {
		_ = binary.Write(&buf, binary.LittleEndian, int64(i))
		_ = binary.Write(&buf, binary.LittleEndian, xs[k])
	}
	return &buf
}

// TupleBytes is tupleBytes for the golden frames of the external tests.
var TupleBytes = tupleBytes[float64]

// obsOrNil keeps a nil *Trace from becoming a non-nil Observer.
func obsOrNil(tr *obs.Trace) obs.Observer {
	if tr == nil {
		return nil
	}
	return tr
}

// TestPowerLawBFSTraceSwitch: on a skewed graph the auto-directed BFS
// starts push (sparse frontier) and goes pull once the frontier saturates;
// the trace must record frontier sizes and that switch. This is the
// library-level twin of cmd/lagraph's TestRunTrace/bfs.
func TestPowerLawBFSTraceSwitch(t *testing.T) {
	g := powerLawGraph(1<<12, 1<<16, 82)
	tr := obs.NewTrace(0)
	if _, err := BFSLevels(g, 0, WithObserver(tr)); err != nil {
		t.Fatal(err)
	}
	var iters []obs.IterRecord
	for _, r := range tr.Iters() {
		if r.Algo == "bfs" {
			iters = append(iters, r)
		}
	}
	if len(iters) < 2 {
		t.Fatalf("BFS trace has %d iteration records, want at least 2", len(iters))
	}
	switched := false
	for k, r := range iters {
		if r.Iter != k+1 {
			t.Errorf("iteration %d recorded as iter %d", k+1, r.Iter)
		}
		if r.Frontier <= 0 {
			t.Errorf("iteration %d has no frontier size: %+v", k+1, r)
		}
		if k > 0 && iters[k-1].Dir == "push" && r.Dir == "pull" {
			switched = true
		}
	}
	if !switched {
		t.Errorf("no push→pull switch across %d iterations (dirs: %v)", len(iters), dirs(iters))
	}
}

func dirs(iters []obs.IterRecord) []string {
	out := make([]string, len(iters))
	for i, r := range iters {
		out[i] = r.Dir
	}
	return out
}

// TestGAPKernelsRunVisibleOperators is the work gate for the tagged inner
// loops (grb's mono.go): on a skewed graph and on a lattice, every product
// PageRank, FastSV, TC, delta-stepping SSSP and batched BC make is recorded
// under the semiring the algorithm spells — the op ran the inline loops, not
// the closures — and so does every level BFS step, under lor.first. A count
// of records, the same on any host.
func TestGAPKernelsRunVisibleOperators(t *testing.T) {
	cfg := gen.Config{Seed: 24, Undirected: true, NoSelfLoops: true, MinWeight: 1, MaxWeight: 10}
	for _, tc := range []struct {
		name string
		g    *Graph
	}{
		{"rmat-10", FromEdgeList(gen.RMAT(10, 8, cfg), Undirected)},
		{"lattice-32", FromEdgeList(gen.Grid2D(32, 32, cfg), Undirected)},
	} {
		g, sources := tc.g, spreadSources(tc.g.N(), 4)
		for _, k := range []struct {
			algo, ops string
			run       func() error
		}{
			{"pagerank", "plus.second", func() error { _, err := PageRankWith(g); return err }},
			{"cc", "min.second", func() error { _, err := ConnectedComponentsFastSV(g); return err }},
			{"tc", "plus.pair", func() error { _, err := TriangleCount(g, TCAuto); return err }},
			{"sssp", "min.plus", func() error { _, err := SSSP(g, sources[0]); return err }},
			{"bc", "plus.first", func() error { _, err := BetweennessCentrality(g, sources); return err }},
			{"bfs", "lor.first", func() error { _, err := BFSLevels(g, sources[0]); return err }},
		} {
			trace := obs.NewTrace(1 << 14)
			restore := obs.Set(trace)
			err := k.run()
			obs.Set(restore)
			if err != nil {
				t.Fatalf("%s %s: %v", tc.name, k.algo, err)
			}
			products := 0
			for _, op := range trace.Ops() {
				if op.Op != "mxm" && op.Op != "vxm" && op.Op != "mxv" {
					continue
				}
				products++
				if op.Ops != k.ops {
					t.Errorf("%s %s: %s/%s ran operators %q, want %q", tc.name, k.algo, op.Op, op.Kernel, op.Ops, k.ops)
				}
			}
			if products == 0 {
				t.Errorf("%s %s: no product op record", tc.name, k.algo)
			}
		}
	}
}
