package lagraph

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"lagraph/internal/baseline"
	"lagraph/internal/gen"
	"lagraph/internal/grb"
	"lagraph/internal/obs"
)

// twoVertices is one undirected edge of the given weight.
func twoVertices(w float64) *Graph {
	return FromEdgeList(&gen.EdgeList{N: 2, Src: []int{0, 1}, Dst: []int{1, 0}, W: []float64{w, w}}, Undirected)
}

// TestSSSPTinyDeltaJumpsEmptyBuckets: between the source and its only
// neighbour lie 10¹⁰ empty buckets of width 1e-9. Walking them one
// SelectVector each takes hours; the query has a second.
func TestSSSPTinyDeltaJumpsEmptyBuckets(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	trace := obs.NewTrace(8)
	d, err := SSSP(twoVertices(10), 0, WithDelta(1e-9), WithContext(ctx), WithObserver(trace))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := d.GetElement(1); err != nil || got != 10 {
		t.Fatalf("distance %v (%v), want 10", got, err)
	}
	if n := len(trace.Iters()); n != 2 {
		t.Fatalf("%d buckets processed, want the source's and the neighbour's", n)
	}
}

// TestSSSPRejectsUnusableDelta: a bucket width that is not a positive
// finite number, or is so far below the spacing of float64 at the distances
// it meets that consecutive bucket bounds coincide, is a bad argument — not
// a loop that never ends.
func TestSSSPRejectsUnusableDelta(t *testing.T) {
	g := twoVertices(10)
	for _, delta := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -2, 1e-300, 5e-324} {
		done := make(chan error, 1)
		go func() {
			_, err := SSSP(g, 0, WithDelta(delta))
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, ErrBadArgument) {
				t.Errorf("delta %v: error %v, want ErrBadArgument", delta, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("delta %v: no answer in 5 s", delta)
		}
	}
	// The smallest width that still resolves a distance of 10 is fine.
	if d, err := SSSP(g, 0, WithDelta(1e-14)); err != nil || d.Nvals() != 2 {
		t.Fatalf("delta 1e-14: %v", err)
	}
}

// TestBucketOf: the bucket a jump lands in is the one the walk would have
// stopped at — the first whose upper bound, computed the way ssspDelta
// computes it, exceeds m.
func TestBucketOf(t *testing.T) {
	rng := rand.New(rand.NewSource(1910))
	hi := func(k int, delta float64) float64 { return float64(k)*delta + delta }
	for trial := 0; trial < 200000; trial++ {
		delta := math.Exp(rng.Float64()*40 - 30)
		m := math.Exp(rng.Float64()*40 - 20)
		if trial%3 == 0 { // on or next to a bucket bound
			m = float64(rng.Intn(1<<20)) * delta
			m = math.Nextafter(m, m+float64(rng.Intn(3)-1))
		}
		k, ok := bucketOf(m, delta)
		if !ok {
			if m/delta < 1<<51 {
				t.Fatalf("m %g, delta %g refused", m, delta)
			}
			continue
		}
		if !(m < hi(k, delta)) || (k > 0 && m < hi(k-1, delta)) {
			t.Fatalf("m %g, delta %g: bucket %d is [%g, %g), the one before ends at %g", m, delta, k, float64(k)*delta, hi(k, delta), hi(k-1, delta))
		}
	}
}

// exactDistances fails unless d holds exactly want (+Inf: no entry).
func exactDistances(t *testing.T, label string, d *grb.Vector[float64], want []float64) {
	t.Helper()
	reached := 0
	for v, wd := range want {
		gd, err := d.GetElement(v)
		switch {
		case math.IsInf(wd, 1):
			if err == nil {
				t.Fatalf("%s: vertex %d is unreachable, got %v", label, v, gd)
			}
		case err != nil || gd != wd:
			t.Fatalf("%s: vertex %d at %v (%v), want %v", label, v, gd, err, wd)
		default:
			reached++
		}
	}
	if d.Nvals() != reached {
		t.Fatalf("%s: %d distances, want %d", label, d.Nvals(), reached)
	}
}

// TestSSSPKnownAnswers: shortest paths at benchmark size whose answers are
// known by construction or from an independent implementation.
func TestSSSPKnownAnswers(t *testing.T) {
	t.Run("lattice", func(t *testing.T) {
		// Unit weights: the distance from (r0,c0) is the Manhattan one.
		g := unweightedLattice(latticeSide)
		const r0, c0 = 40, 97
		want := make([]float64, g.N())
		for v := range want {
			want[v] = float64(absInt(v/latticeSide-r0) + absInt(v%latticeSide-c0))
		}
		for _, delta := range []float64{1, 2, 7} {
			d, err := SSSP(g, r0*latticeSide+c0, WithDelta(delta))
			if err != nil {
				t.Fatal(err)
			}
			exactDistances(t, "lattice", d, want)
		}
	})

	t.Run("path", func(t *testing.T) {
		// A weighted path: the distance from its head is the prefix sum,
		// added in path order — 16 383 buckets' worth of one-vertex frontiers.
		const n = 1 << 14
		e := &gen.EdgeList{N: n}
		want := make([]float64, n)
		for i := 0; i+1 < n; i++ {
			w := 0.25 + float64(i%13)/4
			e.Src, e.Dst, e.W = append(e.Src, i, i+1), append(e.Dst, i+1, i), append(e.W, w, w)
			want[i+1] = want[i] + w
		}
		d, err := SSSP(FromEdgeList(e, Undirected), 0)
		if err != nil {
			t.Fatal(err)
		}
		exactDistances(t, "path", d, want)
	})

	// Rows at the edges of the push's ⟨¬t⟩ mask, at the default δ = 2,
	// against heap Dijkstra and Bellman-Ford. Each edge is {u, v, weight},
	// directed.
	for _, c := range []struct {
		name  string
		n     int
		edges [][3]float64
	}{
		// Vertex 2 enters bucket 1 at exactly 2 and pushes zero-weight
		// edges back to 1 and 0, settled in bucket 0, and on to 3.
		{"zero-weight-back-to-settled", 4, [][3]float64{{0, 1, 1.5}, {1, 2, 0.5}, {2, 1, 0}, {2, 0, 0}, {2, 3, 0}, {3, 2, 0}}},
		// Edges of weight exactly δ land on hi: vertex 1 at 2 opens bucket
		// 1, and 2 at 4 opens bucket 2, reached at 4 through 3 and 4 too.
		{"weight-delta-lands-on-hi", 5, [][3]float64{{0, 1, 2}, {1, 2, 2}, {0, 3, 1.5}, {3, 4, 2}, {4, 2, 0.5}}},
		// Vertex 3 is reached at 2.5 three ways: directly in bucket 0's
		// first step, then through 1 and through 2 in one push, its second.
		{"tie-between-paths", 5, [][3]float64{{0, 3, 2.5}, {0, 1, 1}, {1, 3, 1.5}, {0, 2, 1.5}, {2, 3, 1}, {3, 4, 0.5}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := &gen.EdgeList{N: c.n}
			for _, uvw := range c.edges {
				e.Src, e.Dst, e.W = append(e.Src, int(uvw[0])), append(e.Dst, int(uvw[1])), append(e.W, uvw[2])
			}
			g := FromEdgeList(e, Directed)
			want := baseline.Dijkstra(baseline.FromMatrix(g.A.Dup()), 0)
			d, err := SSSP(g, 0, WithDelta(2))
			if err != nil {
				t.Fatal(err)
			}
			exactDistances(t, c.name, d, want)
			bf, err := SSSPBellmanFord(g, 0)
			if err != nil {
				t.Fatal(err)
			}
			exactDistances(t, c.name+" (Bellman-Ford)", bf, want)
		})
	}

	// RMAT-12 against heap Dijkstra and against Bellman-Ford. The directed
	// graph is the one that tells out-edges from in-edges: a relaxation that
	// pushed along columns would agree on the symmetric graph and fail here.
	for _, undirected := range []bool{true, false} {
		name, kind := "rmat-directed", Directed
		if undirected {
			name, kind = "rmat-undirected", Undirected
		}
		t.Run(name, func(t *testing.T) {
			e := gen.RMAT(12, 8, gen.Config{Seed: 99, Undirected: undirected, NoSelfLoops: true, MinWeight: 1, MaxWeight: 10})
			g := FromEdgeList(e, kind)
			const src = 5
			want := baseline.Dijkstra(baseline.FromMatrix(g.A.Dup()), src)
			for _, delta := range []float64{0.5, 2, 1e6} {
				d, err := SSSP(g, src, WithDelta(delta))
				if err != nil {
					t.Fatal(err)
				}
				exactDistances(t, name, d, want)
			}
			bf, err := SSSPBellmanFord(g, src)
			if err != nil {
				t.Fatal(err)
			}
			exactDistances(t, name+" (Bellman-Ford)", bf, want)
		})
	}
}

// TestSSSPLatticeWork pins the work of a query from the centre of
// bench/e2e's grid, the 128² lattice that BenchmarkC8_Lattice/sssp reads, at
// one and eight workers: 385 pushes, 215 buckets, and 31 940 candidate
// distances over all pushes. The push's ⟨¬t⟩ mask keeps settled vertices
// out of the candidates: pushed unmasked, with each candidate rejected
// against every tentative distance instead, the same pushes, buckets and
// distances came from 56 747.
func TestSSSPLatticeWork(t *testing.T) {
	const side = 128
	g := FromEdgeList(gen.Grid2D(side, side, gen.Config{Seed: 20190520, Undirected: true, NoSelfLoops: true, MinWeight: 1, MaxWeight: 10}), Undirected)
	const src = (side/2)*side + side/2
	const wantPushes, wantBuckets, wantCandidates = 385, 215, 31940
	for _, p := range []int{1, 8} {
		trace := obs.NewTrace(1 << 12)
		func() {
			defer grb.SetParallelism(grb.SetParallelism(p))
			defer obs.Set(obs.Set(trace))
			// Unmasked, a settled vertex's candidate finds no entry in
			// unsettled and rejoins it: the band never empties.
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if _, err := SSSP(g, src, WithContext(ctx)); err != nil {
				t.Fatal(err)
			}
		}()
		pushes, candidates := 0, 0
		for _, op := range trace.Ops() {
			if op.Kernel == "push" {
				pushes++
				candidates += op.NnzOut
			}
		}
		buckets := len(trace.Iters())
		t.Logf("P=%d: %d pushes, %d buckets, %d candidate distances", p, pushes, buckets, candidates)
		if pushes != wantPushes || buckets != wantBuckets || candidates != wantCandidates {
			t.Errorf("P=%d: %d pushes, %d buckets, %d candidates; want %d, %d, %d", p, pushes, buckets, candidates, wantPushes, wantBuckets, wantCandidates)
		}
	}
}

// TestSSSPPrepAllocatesPerEntry is the work gate for what delta-stepping
// does around its relaxations. A query prepares nothing on the Graph and
// every relaxation is a push — a product per relaxed edge, reading rows of
// A itself — so a query allocates its vectors alone (~8 bytes per stored
// entry), and a graph's first query costs what a repeat does. A query that
// splits A into light and heavy halves reads ~30.
func TestSSSPPrepAllocatesPerEntry(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops entries at random: the kernel scratch is reallocated and the bytes stop being a count")
	}
	const maxBytesPerEntry = 10.1 // 1.25 × the 8.1 measured
	e := gen.RMAT(12, 16, gen.Config{Seed: 99, Undirected: true, NoSelfLoops: true, MinWeight: 1, MaxWeight: 10})
	g := FromEdgeList(e, Undirected)
	g.A.Materialize()
	const src = 5
	trace := obs.NewTrace(1 << 12)
	restore := obs.Set(trace)
	_, err := SSSP(g, src) // fills the kernel scratch pools
	obs.Set(restore)
	if err != nil {
		t.Fatal(err)
	}
	products := 0
	for _, op := range trace.Ops() {
		switch op.Kernel {
		case "push":
			products++
		case "pull":
			// Only a pull reads the column-major form, so none means the
			// call never transposed a matrix.
			t.Errorf("op record %+v inside SSSP: every relaxation is a push", op)
		}
	}
	if products == 0 {
		t.Fatal("no push op record inside SSSP")
	}
	perEntry := func(g *Graph) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := SSSP(g, src); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(g.NEdges())
	}
	perEntry(g)                             // untraced, as the measured calls are
	fresh, err := NewGraph(g.A, Undirected) // same A, nothing cached
	if err != nil {
		t.Fatal(err)
	}
	for _, query := range []string{"first", "repeat"} {
		b := perEntry(fresh)
		t.Logf("SSSP on RMAT-12 (%d entries, %d products): %.1f B per entry on a graph's %s query", g.NEdges(), products, b, query)
		if b > maxBytesPerEntry {
			t.Errorf("a %s SSSP allocates %.1f bytes per stored entry (limit %.1f): the query is building a matrix (a split of A, a transpose) rather than relaxing rows of A", query, b, maxBytesPerEntry)
		}
	}
}

// FuzzSSSPAgainstDijkstra: on small random graphs — directed and
// undirected, with isolated vertices (the source among them at times) and
// zero, integer and real weights — delta-stepping at any bucket width from
// 1e-3 to 1e6 returns heap Dijkstra's distances bit for bit, with no entry
// where Dijkstra finds no path, and Bellman-Ford agrees. Nothing relaxes a
// bucket once its inner loop ends, so this is the check that the loop
// runs until no member moves.
func FuzzSSSPAgainstDijkstra(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(30), uint8(0), false, uint16(0))
	f.Add(int64(2), uint8(20), uint8(60), uint8(1), true, uint16(30000))
	f.Add(int64(3), uint8(9), uint8(40), uint8(2), false, uint16(65535))
	f.Add(int64(4), uint8(33), uint8(90), uint8(3), true, uint16(12000))
	f.Fuzz(func(t *testing.T, seed int64, nv, ne, wkind uint8, directed bool, dq uint16) {
		rng := rand.New(rand.NewSource(seed))
		n := int(nv%40) + 1
		span := n - n/4 // the vertices past span stay isolated
		weight := func() float64 {
			switch wkind % 4 {
			case 0: // integers, zero among them
				return float64(rng.Intn(8))
			case 1: // reals
				return rng.Float64() * 10
			case 2: // reals, a third of them zero
				if rng.Intn(3) == 0 {
					return 0
				}
				return rng.Float64()
			default: // reals spread over six decades
				return rng.Float64() * math.Pow(10, float64(rng.Intn(6)-3))
			}
		}
		e := &gen.EdgeList{N: n}
		kind := Undirected
		if directed {
			kind = Directed
		}
		for k := 0; k < int(ne); k++ {
			u, v, w := rng.Intn(span), rng.Intn(span), weight()
			e.Src, e.Dst, e.W = append(e.Src, u), append(e.Dst, v), append(e.W, w)
			if !directed {
				e.Src, e.Dst, e.W = append(e.Src, v), append(e.Dst, u), append(e.W, w)
			}
		}
		g := FromEdgeList(e, kind)
		src := rng.Intn(n)
		delta := math.Pow(10, -3+9*float64(dq)/math.MaxUint16)
		want := baseline.Dijkstra(baseline.FromMatrix(g.A), src)
		d, err := SSSP(g, src, WithDelta(delta))
		if err != nil {
			t.Fatalf("delta %g: %v", delta, err)
		}
		exactDistances(t, fmt.Sprintf("delta %g", delta), d, want)
		bf, err := SSSPBellmanFord(g, src)
		if err != nil {
			t.Fatal(err)
		}
		exactDistances(t, "Bellman-Ford", bf, want)
	})
}
