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
