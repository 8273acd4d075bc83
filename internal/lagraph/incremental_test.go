// Metamorphic equivalence battery for the incremental algorithms: every
// warm-started run must agree with a full recompute on the mutated
// graph — bitwise for CC and BFS (insert-only deltas), to the
// contraction bound for PageRank (any delta). The fuzzer drives random
// delta sequences (dup edges, self-loops, repeated batches) through
// both paths at SetParallelism(1) and SetParallelism(8), so the seed
// corpus doubles as a determinism check under `go test -race`.
package lagraph_test

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"lagraph/internal/gen"
	"lagraph/internal/grb"
	"lagraph/internal/lagraph"
	"lagraph/internal/obs"
)

// deltaGraph builds the scale-8 power-law fixture used across the
// incremental tests.
func deltaGraph(t testing.TB, kind lagraph.Kind) *lagraph.Graph {
	t.Helper()
	n := 1 << 8
	e := gen.PowerLaw(n, 8*n, 1.8, gen.Config{Seed: 42, Undirected: kind == lagraph.Undirected, NoSelfLoops: true})
	g, err := lagraph.NewGraph(e.Matrix(), kind)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// applyInserts lands insert edges on g the way the service's ingest path
// does (SetElements, mirrored for undirected, cache invalidated) and
// returns the matching Delta record.
func applyInserts(t testing.TB, g *lagraph.Graph, src, dst []int) *lagraph.Delta {
	t.Helper()
	is := make([]int, 0, 2*len(src))
	js := make([]int, 0, 2*len(src))
	xs := make([]float64, 0, 2*len(src))
	for k := range src {
		is, js, xs = append(is, src[k]), append(js, dst[k]), append(xs, 1)
		if g.Kind == lagraph.Undirected && src[k] != dst[k] {
			is, js, xs = append(is, dst[k]), append(js, src[k]), append(xs, 1)
		}
	}
	if err := g.A.SetElements(is, js, xs, nil); err != nil {
		t.Fatal(err)
	}
	g.InvalidateCache()
	return &lagraph.Delta{AddSrc: src, AddDst: dst}
}

func vecBytes[T any](t testing.TB, v *grb.Vector[T]) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := grb.SerializeVector(&buf, v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestIncrementalCCEquivalence(t *testing.T) {
	for _, kind := range []lagraph.Kind{lagraph.Undirected, lagraph.Directed} {
		g := deltaGraph(t, kind)
		prior, err := lagraph.ConnectedComponentsWith(g)
		if err != nil {
			t.Fatal(err)
		}
		// Bridge edges between far-apart ids plus a duplicate and a
		// self-loop: the delta shapes ingest actually produces.
		delta := applyInserts(t, g, []int{3, 100, 3, 7}, []int{200, 50, 200, 7})
		inc, err := lagraph.IncrementalCC(g, prior.Labels, delta)
		if err != nil {
			t.Fatal(err)
		}
		full, err := lagraph.ConnectedComponentsWith(g)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(vecBytes(t, inc.Labels), vecBytes(t, full.Labels)) {
			t.Fatalf("kind %v: incremental CC labels differ from full recompute", kind)
		}
	}
}

func TestIncrementalCCRejectsUnusablePriors(t *testing.T) {
	g := deltaGraph(t, lagraph.Undirected)
	prior, err := lagraph.ConnectedComponentsWith(g)
	if err != nil {
		t.Fatal(err)
	}
	ok := &lagraph.Delta{}
	cases := map[string]func() error{
		"nil prior": func() error { _, e := lagraph.IncrementalCC(g, nil, ok); return e },
		"removals": func() error {
			_, e := lagraph.IncrementalCC(g, prior.Labels, &lagraph.Delta{Removals: 1})
			return e
		},
		"untracked": func() error {
			_, e := lagraph.IncrementalCC(g, prior.Labels, &lagraph.Delta{Unknown: true})
			return e
		},
		"nil delta": func() error { _, e := lagraph.IncrementalCC(g, prior.Labels, nil); return e },
		"mis-sized prior": func() error {
			short := grb.MustVector[int64](g.N() - 1)
			_, e := lagraph.IncrementalCC(g, short, ok)
			return e
		},
		"label out of range": func() error {
			bad := prior.Labels.Dup()
			if err := bad.SetElement(0, int64(g.N())); err != nil {
				return err
			}
			_, e := lagraph.IncrementalCC(g, bad, ok)
			return e
		},
	}
	for name, fn := range cases {
		if err := fn(); !errors.Is(err, lagraph.ErrStalePrior) {
			t.Errorf("%s: want ErrStalePrior, got %v", name, err)
		}
	}
}

// TestIncrementalCCRejectsLargerLabel: on the single edge 0–1 the prior
// [1, 1] is in range and names a vertex of each label's component, but a
// warm start from it would keep it, where a cold run answers [0, 0].
func TestIncrementalCCRejectsLargerLabel(t *testing.T) {
	a := grb.MustMatrix[float64](2, 2)
	_ = a.SetElement(0, 1, 1)
	_ = a.SetElement(1, 0, 1)
	g, err := lagraph.NewGraph(a, lagraph.Undirected)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := lagraph.ConnectedComponentsFastSV(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, xs := cold.ExtractTuples(); xs[0] != 0 || xs[1] != 0 {
		t.Fatalf("cold labels %v, want [0 0]", xs)
	}
	_, err = lagraph.IncrementalCC(g, grb.DenseVector([]int64{1, 1}), &lagraph.Delta{})
	if !errors.Is(err, lagraph.ErrStalePrior) {
		t.Fatalf("prior [1 1]: want ErrStalePrior, got %v", err)
	}
}

func TestPageRankWarmEquivalence(t *testing.T) {
	g := deltaGraph(t, lagraph.Directed)
	opts := []lagraph.Option{lagraph.WithDamping(0.85), lagraph.WithTolerance(1e-8), lagraph.WithMaxIter(500)}
	prior, err := lagraph.PageRankWith(g, opts...)
	if err != nil {
		t.Fatal(err)
	}
	applyInserts(t, g, []int{1, 2, 3, 250}, []int{200, 201, 202, 0})
	warm, err := lagraph.PageRankWarm(g, prior.Rank, opts...)
	if err != nil {
		t.Fatal(err)
	}
	full, err := lagraph.PageRankWith(g, opts...)
	if err != nil {
		t.Fatal(err)
	}
	bound := 2 * 0.85 * 1e-8 / (1 - 0.85)
	if d := lagraph.L1Distance(warm.Rank, full.Rank); d > bound {
		t.Fatalf("warm PageRank L1 distance %g exceeds contraction bound %g", d, bound)
	}
	if !warm.Converged || !full.Converged {
		t.Fatalf("expected both runs to converge (warm=%v full=%v)", warm.Converged, full.Converged)
	}
	if warm.Iterations > full.Iterations {
		t.Fatalf("warm start took more iterations (%d) than cold (%d) on a small delta",
			warm.Iterations, full.Iterations)
	}
}

// TestPageRankWarmHalvesIterations is the machine-independent gate for the
// warm-start win bench/history/BENCH_4.json recorded (43 → 16 at scale
// 13): under a 1%-edge delta whose endpoints are drawn
// degree-proportionally — the endpoints of uniformly random existing
// edges, the growth model the power-law fixture is built from — a warm
// start converges in at most half the iterations of a full recompute, at
// the service defaults (d = 0.85, tol = 1e-4).
func TestPageRankWarmHalvesIterations(t *testing.T) {
	n := 1 << 11
	el := gen.PowerLaw(n, 16*n, 1.8, gen.Config{Seed: 42, Undirected: true, NoSelfLoops: true})
	g, err := lagraph.NewGraph(el.Matrix(), lagraph.Undirected)
	if err != nil {
		t.Fatal(err)
	}
	opts := []lagraph.Option{lagraph.WithDamping(0.85), lagraph.WithTolerance(1e-4), lagraph.WithMaxIter(1000)}
	prior, err := lagraph.PageRankWith(g, opts...)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(4242))
	src := make([]int, g.NEdges()/2/100)
	dst := make([]int, len(src))
	for k := range src {
		src[k] = el.Src[rng.Intn(len(el.Src))]
		dst[k] = el.Dst[rng.Intn(len(el.Dst))]
	}
	applyInserts(t, g, src, dst)

	warm, err := lagraph.PageRankWarm(g, prior.Rank, opts...)
	if err != nil {
		t.Fatal(err)
	}
	full, err := lagraph.PageRankWith(g, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Converged || !full.Converged {
		t.Fatalf("expected both runs to converge (warm=%v full=%v)", warm.Converged, full.Converged)
	}
	if warm.Iterations*2 > full.Iterations {
		t.Fatalf("warm start took %d iterations, full recompute %d: want at most half under a 1%% delta (+%d edges)",
			warm.Iterations, full.Iterations, len(src))
	}
	t.Logf("+%d edges: %d warm vs %d full iterations", len(src), warm.Iterations, full.Iterations)
}

func TestPageRankWarmRejectsUnusablePriors(t *testing.T) {
	g := deltaGraph(t, lagraph.Directed)
	prior, err := lagraph.PageRankWith(g)
	if err != nil {
		t.Fatal(err)
	}
	poisoned := prior.Rank.Dup()
	if err := poisoned.SetElement(5, math.NaN()); err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]*grb.Vector[float64]{
		"nil prior":      nil,
		"mis-sized":      grb.MustVector[float64](g.N() - 1),
		"sparse":         grb.MustVector[float64](g.N()),
		"non-finite NaN": poisoned,
	} {
		if _, err := lagraph.PageRankWarm(g, v); !errors.Is(err, lagraph.ErrStalePrior) {
			t.Errorf("%s: want ErrStalePrior, got %v", name, err)
		}
	}
}

func TestIncrementalBFSEquivalence(t *testing.T) {
	for _, kind := range []lagraph.Kind{lagraph.Undirected, lagraph.Directed} {
		g := deltaGraph(t, kind)
		prior, err := lagraph.BFSLevels(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Shortcut edges from near the source to high-level vertices force
		// real repair cascades; the duplicate is a no-op relaxation.
		delta := applyInserts(t, g, []int{0, 0, 4, 9}, []int{255, 255, 180, 130})
		repaired, rounds, err := lagraph.IncrementalBFSLevels(g, 0, prior, delta)
		if err != nil {
			t.Fatal(err)
		}
		full, err := lagraph.BFSLevels(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(vecBytes(t, repaired), vecBytes(t, full)) {
			t.Fatalf("kind %v: repaired BFS levels differ from full recompute", kind)
		}
		_, xs := full.ExtractTuples()
		if depth := int(slices.Max(xs)) + 1; rounds > depth {
			t.Fatalf("kind %v: repair took %d rounds, more than a full BFS depth %d", kind, rounds, depth)
		}
	}
}

// TestIncrementalBFSIgnoresTupleOrder: on the 10-vertex path 0–…–9, the
// inserts (0,5) and (5,9) repair the same levels in the same rounds in
// either order. The seed proposes from the prior levels only, so (5,9)
// proposes 9's prior level + 1 even when (0,5) comes first, and the second
// round lowers 9 to 2; a seed that relaxed the batch serially would lower
// 9 straight to 2 in one order and not in the other. An undirected batch
// may record an edge either way round, so there the two edges are also
// inserted as (9,5) and (5,0).
func TestIncrementalBFSIgnoresTupleOrder(t *testing.T) {
	forward, backward, flipped := [2][]int{{0, 5}, {5, 9}}, [2][]int{{5, 0}, {9, 5}}, [2][]int{{9, 5}, {5, 0}}
	cases := []struct {
		kind      lagraph.Kind
		batches   [][2][]int // the inserts' sources and destinations
		levels    []int32
		frontiers []int
	}{
		{lagraph.Undirected, [][2][]int{forward, backward, flipped}, []int32{0, 1, 2, 3, 2, 1, 2, 3, 3, 2}, []int{2, 4, 2}},
		{lagraph.Directed, [][2][]int{forward, backward}, []int32{0, 1, 2, 3, 4, 1, 2, 3, 4, 2}, []int{2, 2, 1, 1}},
	}
	for _, c := range cases {
		for _, order := range c.batches {
			el := gen.Path(10, gen.Config{Undirected: c.kind == lagraph.Undirected})
			g, err := lagraph.NewGraph(el.Matrix(), c.kind)
			if err != nil {
				t.Fatal(err)
			}
			prior, err := lagraph.BFSLevels(g, 0)
			if err != nil {
				t.Fatal(err)
			}
			delta := applyInserts(t, g, order[0], order[1])
			trace := obs.NewTrace(16)
			repaired, rounds, err := lagraph.IncrementalBFSLevels(g, 0, prior, delta, lagraph.WithObserver(trace))
			if err != nil {
				t.Fatal(err)
			}
			var frontiers []int
			for _, r := range trace.Iters() {
				frontiers = append(frontiers, r.Frontier)
			}
			if _, xs := repaired.ExtractTuples(); !slices.Equal(xs, c.levels) {
				t.Errorf("kind %v, inserts %v→%v: levels %v, want %v", c.kind, order[0], order[1], xs, c.levels)
			}
			if rounds != len(c.frontiers) || !slices.Equal(frontiers, c.frontiers) {
				t.Errorf("kind %v, inserts %v→%v: %d rounds with frontiers %v, want %v", c.kind, order[0], order[1], rounds, frontiers, c.frontiers)
			}
		}
	}
}

// TestIncrementalBFSRecordsDirection: each repair round records the
// direction its vxm over A ran, on a graph where a thousand-vertex frontier
// pulls and the rounds after it push.
func TestIncrementalBFSRecordsDirection(t *testing.T) {
	g := lagraph.FromEdgeList(gen.RMAT(12, 8, gen.Config{Seed: 5, Undirected: true, NoSelfLoops: true}), lagraph.Undirected)
	prior, err := lagraph.BFSLevels(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	var src, dst []int
	for v := 1; v < g.N(); v += 3 {
		src, dst = append(src, 0), append(dst, v)
	}
	delta := applyInserts(t, g, src, dst)
	trace := obs.NewTrace(0)
	prev := obs.Set(trace)
	defer obs.Set(prev)
	if _, _, err := lagraph.IncrementalBFSLevels(g, 0, prior, delta); err != nil {
		t.Fatal(err)
	}
	var kernels []string // the seed's vxm over the batch comes first
	for _, o := range trace.Ops() {
		if o.Op == "vxm" {
			kernels = append(kernels, o.Kernel)
		}
	}
	iters := trace.Iters()
	if len(kernels) != len(iters)+1 {
		t.Fatalf("%d vxm ops for %d rounds", len(kernels), len(iters))
	}
	dirs := map[string]int{}
	for k, r := range iters {
		dirs[r.Dir]++
		if r.Dir != kernels[k+1] {
			t.Errorf("round %d (frontier %d) records %q, its vxm ran %s", r.Iter, r.Frontier, r.Dir, kernels[k+1])
		}
	}
	if dirs["push"] == 0 || dirs["pull"] == 0 {
		t.Errorf("rounds by direction %v: want both", dirs)
	}
}

func TestIncrementalBFSRejectsUnusablePriors(t *testing.T) {
	g := deltaGraph(t, lagraph.Undirected)
	prior, err := lagraph.BFSLevels(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	ok := &lagraph.Delta{}
	cases := map[string]func() error{
		"nil prior": func() error { _, _, e := lagraph.IncrementalBFSLevels(g, 0, nil, ok); return e },
		"removals": func() error {
			_, _, e := lagraph.IncrementalBFSLevels(g, 0, prior, &lagraph.Delta{Removals: 1})
			return e
		},
		"wrong source": func() error {
			// A prior rooted at 0 cannot repair a src=1 query.
			_, _, e := lagraph.IncrementalBFSLevels(g, 1, prior, ok)
			return e
		},
		"endpoint out of range": func() error {
			_, _, e := lagraph.IncrementalBFSLevels(g, 0, prior, &lagraph.Delta{AddSrc: []int{0}, AddDst: []int{g.N()}})
			return e
		},
	}
	for name, fn := range cases {
		if err := fn(); !errors.Is(err, lagraph.ErrStalePrior) {
			t.Errorf("%s: want ErrStalePrior, got %v", name, err)
		}
	}
	if _, _, err := lagraph.IncrementalBFSLevels(g, -1, prior, ok); err == nil || errors.Is(err, lagraph.ErrStalePrior) {
		t.Errorf("negative source: want a bad-argument error, got %v", err)
	}
}

func TestL1Distance(t *testing.T) {
	mk := func(idx []int, xs []float64) *grb.Vector[float64] {
		v, err := grb.ImportSparse(10, idx, xs, true)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	a := mk([]int{0, 3, 7}, []float64{1, -2, 0.5})
	b := mk([]int{3, 5, 7}, []float64{2, 1, 0.5})
	// |1-0| + |-2-2| + |0-1| + |0.5-0.5| = 6
	if d := lagraph.L1Distance(a, b); math.Abs(d-6) > 1e-15 {
		t.Fatalf("L1Distance = %g, want 6", d)
	}
	if d := lagraph.L1Distance(a, a); d != 0 {
		t.Fatalf("L1Distance(a,a) = %g, want 0", d)
	}
}

// FuzzIncrementalEquivalence is the metamorphic core: random base
// graphs, random insert-only delta sequences (dup edges, self-loops,
// repeated endpoints, multiple batches between queries), both
// parallelism levels. CC and BFS must match the full recompute bitwise;
// PageRank must stay inside the contraction bound.
func FuzzIncrementalEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(4), false)
	f.Add(int64(7), uint8(3), uint8(9), true)
	f.Add(int64(42), uint8(2), uint8(16), false)
	f.Add(int64(1234), uint8(5), uint8(3), true)
	f.Fuzz(func(t *testing.T, seed int64, nBatches, opsPerBatch uint8, directed bool) {
		batches := int(nBatches%5) + 1
		ops := int(opsPerBatch%24) + 1
		rng := rand.New(rand.NewSource(seed))
		kind := lagraph.Undirected
		if directed {
			kind = lagraph.Directed
		}
		n := 64 + rng.Intn(129)
		e := gen.ErdosRenyi(n, 4*n, gen.Config{Seed: seed, Undirected: !directed, NoSelfLoops: true})
		g, err := lagraph.NewGraph(e.Matrix(), kind)
		if err != nil {
			t.Fatal(err)
		}

		prOpts := []lagraph.Option{lagraph.WithDamping(0.85), lagraph.WithTolerance(1e-7), lagraph.WithMaxIter(300)}
		cc, err := lagraph.ConnectedComponentsWith(g)
		if err != nil {
			t.Fatal(err)
		}
		bfs, err := lagraph.BFSLevels(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := lagraph.PageRankWith(g, prOpts...)
		if err != nil {
			t.Fatal(err)
		}

		// Accumulate several batches into one delta window, exactly as the
		// catalog's delta log aggregates generations between two queries.
		var src, dst []int
		for b := 0; b < batches; b++ {
			for o := 0; o < ops; o++ {
				u := rng.Intn(n)
				v := u
				if rng.Intn(8) != 0 { // 1-in-8 self-loop
					v = rng.Intn(n)
				}
				src, dst = append(src, u), append(dst, v)
				if rng.Intn(4) == 0 { // repeated edge inside the window
					src, dst = append(src, u), append(dst, v)
				}
			}
		}
		delta := applyInserts(t, g, src, dst)

		for _, par := range []int{1, 8} {
			prev := grb.SetParallelism(par)
			incCC, err := lagraph.IncrementalCC(g, cc.Labels, delta)
			if err != nil {
				t.Fatal(err)
			}
			fullCC, err := lagraph.ConnectedComponentsWith(g)
			if err != nil {
				t.Fatal(err)
			}
			repaired, _, err := lagraph.IncrementalBFSLevels(g, 0, bfs, delta)
			if err != nil {
				t.Fatal(err)
			}
			fullBFS, err := lagraph.BFSLevels(g, 0)
			if err != nil {
				t.Fatal(err)
			}
			warmPR, err := lagraph.PageRankWarm(g, pr.Rank, prOpts...)
			if err != nil {
				t.Fatal(err)
			}
			fullPR, err := lagraph.PageRankWith(g, prOpts...)
			if err != nil {
				t.Fatal(err)
			}
			grb.SetParallelism(prev)

			if !bytes.Equal(vecBytes(t, incCC.Labels), vecBytes(t, fullCC.Labels)) {
				t.Fatalf("P=%d seed=%d: incremental CC diverged from full recompute", par, seed)
			}
			if !bytes.Equal(vecBytes(t, repaired), vecBytes(t, fullBFS)) {
				t.Fatalf("P=%d seed=%d: incremental BFS diverged from full recompute", par, seed)
			}
			bound := 2 * 0.85 * 1e-7 / (1 - 0.85)
			if d := lagraph.L1Distance(warmPR.Rank, fullPR.Rank); d > bound {
				t.Fatalf("P=%d seed=%d: warm PageRank L1 %g exceeds bound %g", par, seed, d, bound)
			}
		}
	})
}
