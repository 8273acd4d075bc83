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

// TestSSSPPrepAllocatesPerEntry is the work gate for what delta-stepping
// does around its relaxations. A query prepares nothing on the Graph and
// every relaxation is a push — a product per relaxed edge, reading rows of
// A itself — so a query allocates its vectors alone (~9 bytes per stored
// entry), and a graph's first query costs what a repeat does. A query that
// splits A into light and heavy halves reads ~30.
func TestSSSPPrepAllocatesPerEntry(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops entries at random: the kernel scratch is reallocated and the bytes stop being a count")
	}
	const maxBytesPerEntry = 11.5 // 1.25 × the 9.2 measured
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
