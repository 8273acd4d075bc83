package grb

import (
	"errors"
	"math"
	"runtime"
	"slices"
	"testing"
)

// FuzzAssembleCS round-trips arbitrary COO tuple batches — duplicates,
// out-of-order input, empty rows, repeated rows — through assembleCS and
// checks the three invariants every kernel depends on: the hypersparse
// row list is strictly ascending, each row's column indices are strictly
// ascending with monotone row pointers, and duplicate combination agrees
// bitwise with a naive map-based oracle that folds duplicates in input
// order (the same association assembleCS's stable (i,j,k) order fixes).
// Assembly has two routes to that order — counting passes and a comparison
// sort, chosen by countingPays — so every input runs both and their
// structures must be the same bits, under duplicate operators where order
// shows (First, Second, Minus), under nil (duplicates are an error on both),
// and through the dispatcher at a dimension that forces the sort.

// fuzzTuples decodes the fuzzer's byte stream into a bounded tuple batch.
func fuzzTuples(data []byte) (nmajor, nminor int, is, js []int, xs []float64) {
	if len(data) < 2 {
		return 1, 1, nil, nil, nil
	}
	nmajor = int(data[0])%64 + 1
	nminor = int(data[1])%64 + 1
	data = data[2:]
	for len(data) >= 3 {
		i := int(data[0]) % nmajor
		j := int(data[1]) % nminor
		// Small signed values keep float sums exact-but-interesting.
		x := float64(int8(data[2]))
		is = append(is, i)
		js = append(js, j)
		xs = append(xs, x)
		data = data[3:]
	}
	return nmajor, nminor, is, js, xs
}

func FuzzAssembleCS(f *testing.F) {
	// Seed: in-order distinct, duplicated keys, reversed order, row gaps.
	f.Add([]byte{4, 4, 0, 0, 1, 1, 1, 2, 3, 3, 3})
	f.Add([]byte{4, 4, 2, 2, 10, 2, 2, 20, 2, 2, 30})
	f.Add([]byte{8, 8, 7, 7, 1, 3, 5, 2, 0, 0, 3, 3, 5, 4})
	f.Add([]byte{2, 63, 1, 62, 1, 0, 0, 2, 1, 62, 3})
	seed := make([]byte, 2+3*300)
	seed[0], seed[1] = 16, 16
	for k := range seed[2:] {
		seed[2+k] = byte(k * 7)
	}
	f.Add(seed)

	f.Fuzz(func(t *testing.T, data []byte) {
		nmajor, nminor, is, js, xs := fuzzTuples(data)

		// Oracle: left-fold duplicates in input order.
		type key struct{ i, j int }
		oracle := map[key]float64{}
		for k := range is {
			kk := key{is[k], js[k]}
			if old, ok := oracle[kk]; ok {
				oracle[kk] = old + xs[k]
			} else {
				oracle[kk] = xs[k]
			}
		}

		c, err := assembleCS(nmajor, nminor, is, js, xs, Plus[float64]())
		if err != nil {
			t.Fatalf("assembleCS: %v", err)
		}

		// Structural invariants.
		if c.nmajor != nmajor || c.nminor != nminor {
			t.Fatalf("dims (%d,%d), want (%d,%d)", c.nmajor, c.nminor, nmajor, nminor)
		}
		if len(c.p) != len(c.h)+1 || c.p[0] != 0 {
			t.Fatalf("pointer shape: len(p)=%d len(h)=%d p[0]=%d", len(c.p), len(c.h), c.p[0])
		}
		for k := 0; k < c.nvecs(); k++ {
			if k > 0 && c.h[k] <= c.h[k-1] {
				t.Fatalf("row list not strictly ascending at %d: %v", k, c.h)
			}
			if c.p[k+1] <= c.p[k] {
				t.Fatalf("stored row %d is empty or pointers non-monotone", k)
			}
			ci, _ := c.vec(k)
			for t2 := 1; t2 < len(ci); t2++ {
				if ci[t2] <= ci[t2-1] {
					t.Fatalf("row %d columns not strictly ascending: %v", c.h[k], ci)
				}
			}
		}

		// Value agreement with the oracle, entry by entry.
		if c.nvals() != len(oracle) {
			t.Fatalf("nvals %d, want %d distinct keys", c.nvals(), len(oracle))
		}
		for k := 0; k < c.nvecs(); k++ {
			ci, cx := c.vec(k)
			for t2 := range ci {
				kk := key{c.h[k], ci[t2]}
				want, ok := oracle[kk]
				if !ok {
					t.Fatalf("entry (%d,%d) not in oracle", kk.i, kk.j)
				}
				if cx[t2] != want {
					t.Fatalf("entry (%d,%d) = %v (bits %x), oracle %v (bits %x)",
						kk.i, kk.j, cx[t2], bits(cx[t2]), want, bits(want))
				}
			}
		}

		// Both routes, every duplicate semantics: the same structure, and
		// dup=nil rejecting exactly the batches that contain duplicates.
		counted, sorted := countingOrder(nmajor, nminor, is, js), comparisonOrder(is, js)
		hasDup := len(oracle) < len(is)
		for _, dup := range []struct {
			name string
			op   BinaryOp[float64, float64, float64]
		}{{"plus", Plus[float64]()}, {"first", First[float64, float64]()}, {"second", Second[float64, float64]()}, {"minus", Minus[float64]()}, {"nil", nil}} {
			a, errA := compressOrdered(nmajor, nminor, counted, is, js, xs, dup.op)
			b, errB := compressOrdered(nmajor, nminor, sorted, is, js, xs, dup.op)
			if dup.op == nil && hasDup {
				if !errors.Is(errA, ErrInvalidValue) || !errors.Is(errB, ErrInvalidValue) {
					t.Fatalf("dup=nil on duplicated input: counting err=%v, sort err=%v, want ErrInvalidValue", errA, errB)
				}
				continue
			}
			if errA != nil || errB != nil {
				t.Fatalf("dup=%s: counting err=%v, sort err=%v", dup.name, errA, errB)
			}
			if !sameCS(a, b) {
				t.Fatalf("dup=%s: counting route built %+v, comparison sort %+v", dup.name, a, b)
			}
			if dup.name == "plus" && !sameCS(a, c) {
				t.Fatalf("assembleCS built %+v, its counting route %+v", c, a)
			}
		}

		// The same tuples with every row index scaled into a dimension that
		// dwarfs the batch go through the dispatcher's comparison route and
		// must come out as the same rows, relabeled.
		const stride = 1 << 14
		if countingPays(len(is), nmajor*stride, nminor) {
			t.Fatalf("countingPays(%d, %d, %d): the batch cannot pay for that sweep", len(is), nmajor*stride, nminor)
		}
		scaled := make([]int, len(is))
		for k, i := range is {
			scaled[k] = i * stride
		}
		wide, err := assembleCS(nmajor*stride, nminor, scaled, js, xs, Minus[float64]())
		if err != nil {
			t.Fatalf("assembleCS at dimension %d: %v", nmajor*stride, err)
		}
		narrow, _ := compressOrdered(nmajor, nminor, counted, is, js, xs, Minus[float64]())
		for k := range narrow.h {
			narrow.h[k] *= stride
		}
		narrow.nmajor *= stride
		if !sameCS(wide, narrow) {
			t.Fatalf("dimension %d built %+v, want %+v", nmajor*stride, wide, narrow)
		}
	})
}

// sameCS reports whether two structures are the same bits.
func sameCS(a, b *cs[float64]) bool {
	return a.nmajor == b.nmajor && a.nminor == b.nminor &&
		slices.Equal(a.p, b.p) && slices.Equal(a.h, b.h) && slices.Equal(a.i, b.i) &&
		slices.EqualFunc(a.x, b.x, func(x, y float64) bool { return bits(x) == bits(y) })
}

// TestSmallBatchAssemblyStaysOBatch pins the assembly rule's small side: a
// 64-tuple batch into a 2¹⁶-dimension matrix is ordered by the comparison
// sort — sweeping two 65 536-cell count arrays for it would cost a thousand
// times the batch — while a bulk load of a graph counts. The allocation
// bound is the observable: the counting route's count array alone is
// 512 KiB at this dimension.
func TestSmallBatchAssemblyStaysOBatch(t *testing.T) {
	const dim, batch = 1 << 16, 64
	if countingPays(batch, dim, dim) {
		t.Fatalf("countingPays(%d, %d, %d) = true: a small batch would sweep the dimensions", batch, dim, dim)
	}
	if !countingPays(425456, 1<<14, 1<<14) {
		t.Fatal("countingPays rejects the RMAT-14 bulk load")
	}
	if countingPays(1000, 1<<40, 1<<40) {
		t.Fatal("countingPays accepts a hypersparse dimension")
	}
	a := MustMatrix[float64](dim, dim)
	is, js, xs := make([]int, batch), make([]int, batch), make([]float64, batch)
	var before, after runtime.MemStats
	for round := 0; round < 2; round++ { // into an empty matrix, then into a non-empty one
		for k := range is {
			is[k], js[k], xs[k] = (k*7919+round)%dim, (k*104729)%dim, float64(k)
		}
		if err := a.SetElements(is, js, xs, nil); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&before)
		a.Wait()
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
			t.Fatalf("round %d: assembling %d tuples into a %d-dimension matrix allocated %d bytes, want O(batch)", round, batch, dim, got)
		}
	}
	if a.Nvals() != 2*batch {
		t.Fatalf("nvals %d, want %d", a.Nvals(), 2*batch)
	}
}

func bits(x float64) uint64 { return math.Float64bits(x) }
