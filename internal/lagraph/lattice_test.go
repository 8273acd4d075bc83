package lagraph

// Closed-form answers at benchmark size, and a work gate that does not
// depend on the host. The 128×128 lattice is bench/e2e's `grid` workload:
// diameter 254, frontiers of at most a few hundred vertices — the shape on
// which a level used to cost O(n) whatever its frontier held.

import (
	"math"
	"math/big"
	"runtime"
	"testing"

	"lagraph/internal/gen"
	"lagraph/internal/grb"
)

const latticeSide = 128

func unweightedLattice(side int) *Graph {
	return FromEdgeList(gen.Grid2D(side, side, gen.Config{Undirected: true}), Undirected)
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// TestLatticeBFSIsManhattanDistance: on the unweighted lattice the BFS
// level of (r,c) from (r0,c0) is |r-r0| + |c-c0|.
func TestLatticeBFSIsManhattanDistance(t *testing.T) {
	g := unweightedLattice(latticeSide)
	for _, src := range [][2]int{{0, 0}, {64, 64}, {127, 3}, {17, 101}} {
		levels, err := BFSLevels(g, src[0]*latticeSide+src[1])
		if err != nil {
			t.Fatal(err)
		}
		simple, err := BFSLevelSimple(g, src[0]*latticeSide+src[1])
		if err != nil {
			t.Fatal(err)
		}
		if levels.Nvals() != latticeSide*latticeSide {
			t.Fatalf("source %v reached %d of %d vertices", src, levels.Nvals(), latticeSide*latticeSide)
		}
		for r := 0; r < latticeSide; r++ {
			for c := 0; c < latticeSide; c++ {
				want := int32(absInt(r-src[0]) + absInt(c-src[1]))
				if got, err := levels.GetElement(r*latticeSide + c); err != nil || got != want {
					t.Fatalf("source %v: level(%d,%d) = %d (err %v), want %d", src, r, c, got, err, want)
				}
				// Fig. 2's levels are 1-based.
				if got, err := simple.GetElement(r*latticeSide + c); err != nil || got != want+1 {
					t.Fatalf("source %v: simple level(%d,%d) = %d (err %v), want %d", src, r, c, got, err, want+1)
				}
			}
		}
	}
}

// TestLatticePathCountsAreBinomials: the number of shortest paths from
// (r0,c0) to (r,c) is C(|Δr|+|Δc|, |Δr|) — the forward sweep of BC is
// Pascal's triangle laid over the lattice. Counts reach C(254,127) ≈ 10⁷⁵,
// far past 2⁵³, so the comparison is relative: each count is a sum of at
// most 254 roundings.
func TestLatticePathCountsAreBinomials(t *testing.T) {
	g := unweightedLattice(latticeSide)
	sources := [][2]int{{0, 0}, {64, 64}, {127, 3}}
	ids := make([]int, len(sources))
	for s, src := range sources {
		ids[s] = src[0]*latticeSide + src[1]
	}
	plusFirst := grb.Semiring[float64, float64, float64]{Add: grb.PlusMonoid[float64](), Mul: grb.First[float64, float64]()}
	paths, levels, err := bcForward(g, ids, plusFirst)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2*(latticeSide-1) + 1; len(levels) != want {
		t.Fatalf("forward sweep found %d levels, want %d", len(levels), want)
	}
	if paths.Nvals() != len(sources)*latticeSide*latticeSide {
		t.Fatalf("paths holds %d entries, want %d", paths.Nvals(), len(sources)*latticeSide*latticeSide)
	}
	for s, src := range sources {
		for r := 0; r < latticeSide; r++ {
			for c := 0; c < latticeSide; c++ {
				dr, dc := absInt(r-src[0]), absInt(c-src[1])
				want, _ := new(big.Float).SetInt(new(big.Int).Binomial(int64(dr+dc), int64(dr))).Float64()
				got, err := paths.GetElement(s, r*latticeSide+c)
				if err != nil || math.Abs(got-want) > 1e-12*want {
					t.Fatalf("source %v: σ(%d,%d) = %g (err %v), want C(%d,%d) = %g", src, r, c, got, err, dr+dc, dr, want)
				}
			}
		}
	}
}

// TestBetweennessPathClosedForm: on the undirected path 0—1—…—n-1 a
// shortest path from s to t passes v exactly when v lies strictly between
// them, so source s contributes n-1-v to every v > s and v to every v < s;
// over all sources bc(v) = 2·v·(n-1-v).
func TestBetweennessPathClosedForm(t *testing.T) {
	check := func(n int, sources []int) {
		t.Helper()
		g := FromEdgeList(gen.Path(n, gen.Config{Undirected: true}), Undirected)
		got, err := BetweennessCentrality(g, sources)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < n; v++ {
			want := 0.0
			for _, s := range sources {
				switch {
				case s < v:
					want += float64(n - 1 - v)
				case s > v:
					want += float64(v)
				}
			}
			gv, err := got.GetElement(v)
			if want == 0 {
				if err == nil {
					t.Fatalf("n=%d: bc(%d) = %v, want no entry", n, v, gv)
				}
				continue
			}
			if err != nil || gv != want {
				t.Fatalf("n=%d: bc(%d) = %v (err %v), want %v", n, v, gv, err, want)
			}
		}
	}
	all := make([]int, 384)
	for i := range all {
		all[i] = i
	}
	check(len(all), all)                                  // every source: 2·v·(n-1-v)
	check(latticeSide*latticeSide, []int{0, 5000, 16383}) // benchmark order, diameter n-1
}

// totalAlloc is the bytes f allocates, on its second run: the first fills
// the kernel scratch pools and lazy caches.
func totalAlloc(f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc - before.TotalAlloc)
}

// TestTraversalWorkScalesWithFrontier is the host-independent work gate.
// Doubling the lattice side multiplies n by 4 and the levels by 2; the
// frontiers, summed over a traversal, are n. A traversal whose levels cost
// O(frontier) therefore allocates ~4× more (O(n + Σfrontier)), one whose
// levels cost O(n) ~8× (O(n·depth)). Allocation is a count, not a time: it
// repeats to a few percent on any host (a collection between two calls
// empties the kernels' scratch pool, which is then reallocated).
func TestTraversalWorkScalesWithFrontier(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops entries at random: the kernel scratch is reallocated and the bytes stop being a count")
	}
	cfg := gen.Config{Undirected: true, NoSelfLoops: true, MinWeight: 1, MaxWeight: 10, Seed: 20190520}
	const maxGrowth = 5.0
	kernels := []struct {
		name string
		run  func(g *Graph, src int)
	}{
		{"BFSLevels", func(g *Graph, src int) { _, _ = BFSLevels(g, src) }},
		{"SSSP", func(g *Graph, src int) { _, _ = SSSP(g, src) }},
		{"BetweennessCentrality", func(g *Graph, src int) { _, _ = BetweennessCentrality(g, []int{src}) }},
	}
	var bytes [2][]float64
	for k, side := range []int{32, 64} {
		g := FromEdgeList(gen.Grid2D(side, side, cfg), Undirected)
		g.A.Materialize()
		src := (side/2)*side + side/2
		for _, kn := range kernels {
			bytes[k] = append(bytes[k], totalAlloc(func() { kn.run(g, src) }))
		}
	}
	for i, kn := range kernels {
		small, large := bytes[0][i], bytes[1][i]
		t.Logf("%-22s 32×32: %8.0f B   64×64: %8.0f B   growth %.2f×", kn.name, small, large, large/small)
		if large/small > maxGrowth {
			t.Errorf("%s allocates %.2f× more on a lattice of twice the side; a level costing O(frontier) grows ~4×, one costing O(n) ~8× (limit %.1f×)", kn.name, large/small, maxGrowth)
		}
	}
}

// TestLatticeBFSAllocates is the work gate for a level's mask work on the
// lattice: the push kernel probes the dense-held ¬levels mask at each
// touched cell before it sorts, and the write rule adopts the admitted
// result without filtering it again, or building a mask view to do so. A
// repeat BFSLevels from the centre of the 128² lattice reads 949
// allocations and 579–607 KB; it read 1 325 and 751–774 KB while the
// kernel sorted every touched cell and the write rule re-filtered them.
func TestLatticeBFSAllocates(t *testing.T) {
	const maxAllocs, maxKB = 1090, 700
	allocs, kb := centreRepeatCost(t, func(g *Graph, src int) error { _, err := BFSLevels(g, src); return err })
	t.Logf("a repeat BFSLevels on the 128² lattice: %.0f allocations, %.0f KB", allocs, kb)
	if allocs > maxAllocs || kb > maxKB {
		t.Errorf("a repeat BFSLevels on the lattice makes %.0f allocations and %.0f KB (limits %d, %d): a level sorts or filters cells the mask rejects", allocs, kb, maxAllocs, maxKB)
	}
}

// TestLatticeBCAllocates is the work gate for a BC level on the lattice: a
// backward level reads its two wavefronts and the dependencies of the level
// below, never paths or the accumulated delta, the column sum folds rows of
// delta instead of transposing it, and an element-wise result of one
// non-empty row adopts the row its kernel staged. A repeat one-source BC
// from the centre of the 128² lattice reads 8 706 allocations and 4 190–4 430
// KB; it read 13 371 and 6 260–6 370 KB when every backward level merged
// against paths and delta and the sum transposed delta.
func TestLatticeBCAllocates(t *testing.T) {
	const maxAllocs, maxKB = 9500, 4650
	allocs, kb := centreRepeatCost(t, func(g *Graph, src int) error {
		_, err := BetweennessCentrality(g, []int{src})
		return err
	})
	t.Logf("a repeat one-source BC on the 128² lattice: %.0f allocations, %.0f KB", allocs, kb)
	if allocs > maxAllocs || kb > maxKB {
		t.Errorf("a repeat one-source BC on the lattice makes %.0f allocations and %.0f KB (limits %d, %d): a level reads more than its wavefronts", allocs, kb, maxAllocs, maxKB)
	}
}

// centreRepeatCost returns what a repeat call of run from the centre of the
// 128² lattice allocates, averaged over four calls: a collection that
// empties the scratch pool mid-call costs that call its lanes again.
func centreRepeatCost(t *testing.T, run func(g *Graph, src int) error) (allocs, kb float64) {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops entries at random: the kernel scratch is reallocated and the allocations stop being a count")
	}
	g := unweightedLattice(latticeSide)
	g.A.Materialize()
	src := (latticeSide/2)*latticeSide + latticeSide/2
	call := func() {
		if err := run(g, src); err != nil {
			t.Fatal(err)
		}
	}
	const calls = 4
	kb = totalAlloc(func() {
		for i := 0; i < calls; i++ {
			call()
		}
	}) / calls / 1024
	return testing.AllocsPerRun(calls, call), kb
}

// TestFullVectorIterationAllocatesNothingPerVertex is the work gate for the
// full-vector pipelines. Every intermediate of a PageRank or FastSV
// iteration has all n entries; on the dense result route each grb call is a
// pass over pooled lanes, and each loop writes into workspaces allocated
// once, so what an iteration allocates is what the algorithm's own text asks
// for, not an n-vector per call. PageRank's text asks for nothing per
// vertex; FastSV's ExtractTuples snapshot is 16 B per vertex. Bytes per
// iteration per vertex is a count: ~290 (PageRank) and ~640 (FastSV) before
// the dense route, ~57 and ~46 before the workspaces. The RMAT graph has
// dangling vertices, so its row runs PageRank's gather.
func TestFullVectorIterationAllocatesNothingPerVertex(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops entries at random: lanes are reallocated and the bytes stop being a count")
	}
	kernels := []struct {
		name  string
		limit float64
		run   func(g *Graph) (iters int, err error)
	}{
		{"PageRank", 8, func(g *Graph) (int, error) {
			res, err := PageRankWith(g)
			if err != nil {
				return 0, err
			}
			return res.Iterations, nil
		}},
		{"FastSV", 24, func(g *Graph) (int, error) {
			res, err := ConnectedComponentsWith(g)
			if err != nil {
				return 0, err
			}
			return res.Iterations, nil
		}},
	}
	graphs := []struct {
		name     string
		g        *Graph
		dangling bool
	}{
		{"64×64 lattice", unweightedLattice(64), false},
		{"128×128 lattice", unweightedLattice(latticeSide), false},
		{"RMAT-12", FromEdgeList(gen.RMAT(12, 8, gen.Config{Seed: 99, Undirected: true, NoSelfLoops: true}), Undirected), true},
	}
	for _, gr := range graphs {
		g := gr.g
		g.A.Materialize()
		if has := g.OutDegree().Nvals() < g.N(); has != gr.dangling {
			t.Fatalf("%s: has dangling vertices = %v, want %v", gr.name, has, gr.dangling)
		}
		n := float64(g.N())
		for _, k := range kernels {
			var iters int
			bytes := totalAlloc(func() {
				var err error
				if iters, err = k.run(g); err != nil {
					t.Fatal(err)
				}
			})
			per := bytes / float64(iters) / n
			t.Logf("%-15s %-8s %9.0f B in %2d iterations: %.1f B per iteration per vertex", gr.name, k.name, bytes, iters, per)
			if per > k.limit {
				t.Errorf("%s on the %s allocates %.1f bytes per iteration per vertex (limit %.0f): some grb call is rebuilding an n-entry result instead of passing over lanes, or the loop allocates a vector per iteration",
					k.name, gr.name, per, k.limit)
			}
		}
	}
}

// TestFastSVClosedForms: connected components at benchmark size have
// answers by construction. The lattice is one component whose smallest id
// is 0; k disjoint paths are k components, each labelled by the smallest
// id on its path.
func TestFastSVClosedForms(t *testing.T) {
	components := func(g *Graph) (int, []int64) {
		t.Helper()
		labels, err := ConnectedComponentsFastSV(g)
		if err != nil {
			t.Fatal(err)
		}
		is, xs := labels.ExtractTuples()
		if len(is) != g.N() {
			t.Fatalf("%d of %d vertices labelled", len(is), g.N())
		}
		return CountComponents(labels), xs
	}
	count, xs := components(unweightedLattice(latticeSide))
	if count != 1 {
		t.Fatalf("%d components on the lattice, want 1", count)
	}
	for v, l := range xs {
		if l != 0 {
			t.Fatalf("lattice vertex %d labelled %d, want 0", v, l)
		}
	}

	const k, length = latticeSide, latticeSide // 128 paths of 128 vertices
	e := &gen.EdgeList{N: k * length}
	for p := 0; p < k; p++ {
		for i := 0; i+1 < length; i++ {
			u := p*length + i
			e.Src, e.Dst, e.W = append(e.Src, u, u+1), append(e.Dst, u+1, u), append(e.W, 1, 1)
		}
	}
	count, xs = components(FromEdgeList(e, Undirected))
	if count != k {
		t.Fatalf("%d components on %d disjoint paths", count, k)
	}
	for v, l := range xs {
		if want := int64(v / length * length); l != want {
			t.Fatalf("vertex %d on path %d labelled %d, want the path's smallest id %d", v, v/length, l, want)
		}
	}
}

// TestPageRankCycleClosedForm: on a cycle every vertex has degree 2, the
// uniform vector is the fixed point, and the power iteration from 1/n
// stops after one sweep with every rank 1/n.
func TestPageRankCycleClosedForm(t *testing.T) {
	n := latticeSide * latticeSide
	g := FromEdgeList(gen.Ring(n, gen.Config{Undirected: true}), Undirected)
	res, err := PageRankWith(g)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations != 1 {
		t.Fatalf("converged=%v after %d iterations, want 1", res.Converged, res.Iterations)
	}
	is, xs := res.Rank.ExtractTuples()
	if len(is) != n {
		t.Fatalf("%d of %d vertices ranked", len(is), n)
	}
	for v, x := range xs {
		if math.Abs(x-1/float64(n)) > 1e-15 {
			t.Fatalf("rank(%d) = %v, want 1/n = %v", v, x, 1/float64(n))
		}
	}
}
