package grb

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// The host running the test suite may have a single CPU; these tests pin
// the worker count above 1 so the concurrent kernel paths are exercised
// and verified deterministic regardless of GOMAXPROCS.

// TestParallelWorkContract: parallelWork, every parallel kernel's
// scheduler, visits each index once; n = 0 runs nothing; a total weight
// under seqFallbackWork is one range at any worker count; a skewed weight
// over it is cut into chunks; and the stats it fills count the ranges it
// ran and the weight they carried.
func TestParallelWorkContract(t *testing.T) {
	defer SetParallelism(SetParallelism(8))
	run := func(n int, weight func(k int) int) (ranges [][2]int, st kernelStats) {
		var mu sync.Mutex
		seen := make([]atomic.Int32, n)
		parallelWork(n, mxmWorkQuantum, weight, &st, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				seen[i].Add(1)
			}
			mu.Lock()
			ranges = append(ranges, [2]int{lo, hi})
			mu.Unlock()
		})
		for i := range seen {
			if c := seen[i].Load(); c != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, c)
			}
		}
		if st.chunks != len(ranges) {
			t.Fatalf("n=%d: stats count %d chunks, %d ranges ran", n, st.chunks, len(ranges))
		}
		return ranges, st
	}
	if ranges, _ := run(0, func(int) int { return 1 }); len(ranges) != 0 {
		t.Fatalf("n=0 ran %v", ranges)
	}
	const n = 1000
	light := func(int) int { return seqFallbackWork/n - 1 }
	if ranges, st := run(n, light); len(ranges) != 1 || ranges[0] != [2]int{0, n} || st.estFlops >= seqFallbackWork {
		t.Fatalf("a total weight of %d under %d ran %v", st.estFlops, seqFallbackWork, ranges)
	}
	const hub = 500
	skewed := func(k int) int {
		if k == hub {
			return seqFallbackWork
		}
		return 64
	}
	ranges, st := run(n, skewed)
	if total := int64(seqFallbackWork + (n-1)*64); len(ranges) < 2 || st.estFlops != total {
		t.Fatalf("a skewed weight of %d (stats: %d) ran %d range(s): want chunks", total, st.estFlops, len(ranges))
	}
}

func TestSetParallelism(t *testing.T) {
	old := SetParallelism(3)
	if workers() != 3 {
		t.Fatalf("workers=%d", workers())
	}
	SetParallelism(0)
	if workers() < 1 {
		t.Fatal("default workers must be >= 1")
	}
	SetParallelism(old)
}

// TestParallelDeterminism checks that multi-worker kernels produce results
// identical to single-worker runs (the row-partitioned design guarantees
// it).
func TestParallelDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 300
	a := MustMatrix[int64](n, n)
	b := MustMatrix[int64](n, n)
	for k := 0; k < 6000; k++ {
		_ = a.SetElement(rng.Intn(n), rng.Intn(n), int64(rng.Intn(9)-4))
		_ = b.SetElement(rng.Intn(n), rng.Intn(n), int64(rng.Intn(9)-4))
	}

	run := func() (*Matrix[int64], *Matrix[int64], *Vector[int64]) {
		c := MustMatrix[int64](n, n)
		if err := MxM[int64, int64, int64, bool](c, nil, nil, PlusTimes[int64](), a, b, nil); err != nil {
			t.Fatal(err)
		}
		e := MustMatrix[int64](n, n)
		if err := EWiseAddMatrix[int64, bool](e, nil, nil, Plus[int64](), a, b, nil); err != nil {
			t.Fatal(err)
		}
		r := MustVector[int64](n)
		if err := ReduceMatrixToVector[int64, bool](r, nil, nil, PlusMonoid[int64](), a, nil); err != nil {
			t.Fatal(err)
		}
		return c, e, r
	}

	defer SetParallelism(SetParallelism(1))
	c1, e1, r1 := run()
	SetParallelism(7)
	c2, e2, r2 := run()

	eqM := func(x, y *Matrix[int64]) bool {
		xi, xj, xv := x.ExtractTuples()
		yi, yj, yv := y.ExtractTuples()
		if len(xi) != len(yi) {
			return false
		}
		for k := range xi {
			if xi[k] != yi[k] || xj[k] != yj[k] || xv[k] != yv[k] {
				return false
			}
		}
		return true
	}
	if !eqM(c1, c2) {
		t.Fatal("MxM differs across worker counts")
	}
	if !eqM(e1, e2) {
		t.Fatal("eWiseAdd differs across worker counts")
	}
	i1, v1 := r1.ExtractTuples()
	i2, v2 := r2.ExtractTuples()
	if len(i1) != len(i2) {
		t.Fatal("reduce length differs")
	}
	for k := range i1 {
		if i1[k] != i2[k] || v1[k] != v2[k] {
			t.Fatal("reduce differs across worker counts")
		}
	}
}

// TestChunkedRowSitesMatchOneWorker: apply, both arms of the element-wise
// rows (standard operands, and hypersparse ones through their row union)
// and the parallel transpose's prefix pass carry more than seqFallbackWork,
// so at eight workers parallelWork cuts each into chunks; each gives the
// tuples it gives at one worker.
func TestChunkedRowSitesMatchOneWorker(t *testing.T) {
	const nr, nc = 100, 10000 // a transpose's prefix pass weighs nc a chunk
	rng := rand.New(rand.NewSource(48))
	a, b := MustMatrix[int64](nr, nc), MustMatrix[int64](nr, nc)
	for k := 0; k < 90000; k++ {
		_ = a.SetElement(rng.Intn(nr), rng.Intn(nc), int64(rng.Intn(9)-4))
		_ = b.SetElement(rng.Intn(nr), rng.Intn(nc), int64(rng.Intn(9)-4))
	}
	a.Wait()
	b.Wait()
	ha, hb := a.Dup(), b.Dup()
	ha.Hold("hyper")
	hb.Hold("hyper")

	defer SetParallelism(SetParallelism(8))
	// Each site's weight: an index's entries plus one, or a transposed
	// column's one count a chunk.
	chunks := len(rowChunks(a.materializedCSR().p, 1, 8)) - 1
	for site, total := range map[string]int{"apply": a.Nvals() + nr, "eWise": a.Nvals() + b.Nvals() + nr, "transpose": nc * chunks} {
		if total < seqFallbackWork {
			t.Fatalf("%s weighs %d, under seqFallbackWork: it runs in one chunk", site, total)
		}
	}
	run := func() []any {
		c, e, he := MustMatrix[int64](nr, nc), MustMatrix[int64](nr, nc), MustMatrix[int64](nr, nc)
		if err := errors.Join(
			ApplyMatrix[int64, int64, bool](c, nil, nil, func(x int64) int64 { return 3*x + 1 }, a, nil),
			EWiseAddMatrix[int64, bool](e, nil, nil, Minus[int64](), a, b, nil),
			EWiseAddMatrix[int64, bool](he, nil, nil, Minus[int64](), ha, hb, nil)); err != nil {
			t.Fatal(err)
		}
		var out []any
		for _, m := range []*Matrix[int64]{c, e, he} {
			is, js, xs := m.ExtractTuples()
			out = append(out, is, js, xs)
		}
		tr := transposeCS(a.materializedCSR())
		return append(out, tr.p, tr.i, tr.x)
	}
	p8 := run()
	SetParallelism(1)
	p1 := run()
	for k := range p1 {
		if !reflect.DeepEqual(p1[k], p8[k]) {
			t.Fatalf("output %d differs between one worker and eight", k)
		}
	}
}

// TestConcurrentReads checks that read-only operations on a shared,
// materialized matrix are safe from multiple goroutines.
func TestConcurrentReads(t *testing.T) {
	n := 200
	a := MustMatrix[float64](n, n)
	for k := 0; k < 4000; k++ {
		_ = a.SetElement((k*7)%n, (k*13)%n, float64(k))
	}
	a.Wait()
	// No cache pre-build: the first concurrent pull builds the CSC cache
	// under its mutex.

	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(seed int) {
			v := MustVector[float64](n)
			for i := 0; i < n; i++ {
				_ = v.SetElement(i, float64(i+seed))
			}
			w2 := MustVector[float64](n)
			// Alternate push and pull so both access paths (including the
			// lazy CSC build) run concurrently.
			d := &Descriptor{Dir: DirPush}
			if seed%2 == 0 {
				d.Dir = DirPull
			}
			err := MxV(w2, (*Vector[bool])(nil), nil, PlusTimes[float64](), a, v, d)
			done <- err
		}(w)
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
