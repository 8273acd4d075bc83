package grb

import "sort"

// materializedCSR completes pending work and returns the row-major
// compressed storage, recompacting it first if the dense form was written
// last.
func (a *Matrix[T]) materializedCSR() *cs[T] {
	a.Wait()
	return a.csr
}

// materializedCSC returns the column-major view, building and caching it on
// first use. Kernels that prefer column access (dot-product mxm, pull mxv)
// call this; the cache is invalidated by any mutation. The build is
// mutex-guarded so that a fully-materialized matrix can be shared by
// concurrent read-only operations.
func (a *Matrix[T]) materializedCSC() *cs[T] {
	a.Wait()
	a.cscMu.Lock()
	defer a.cscMu.Unlock()
	if a.csc == nil {
		a.csc = transposeCS(a.csr)
	}
	return a.csc
}

// Materialize completes every lazy structure of the matrix: pending
// tuples and zombies are assembled and the column-oriented cache is
// built. After Materialize returns, read-only operations — including the
// pull and dot kernels that want column access — never mutate the matrix,
// so it can be shared by any number of concurrent readers. (Wait alone
// suffices for that: the column-oriented cache is built under cscMu.)
func (a *Matrix[T]) Materialize() {
	a.materializedCSC()
}

// transposeCS returns the same entries with major and minor swapped. For
// standard targets it uses an O(nvals + nminor) bucket pass — parallelized
// as the classic two-pass transpose (per-chunk column counts → prefix sum
// → concurrent scatter at exact offsets) when the matrix is large; when
// the minor dimension is huge and the matrix sparse (hypersparse regime)
// it sorts tuples instead, keeping memory at O(nvals).
func transposeCS[T any](c *cs[T]) *cs[T] {
	if c.nminor >= hyperThresholdDim*hyperRatio && c.nvals() < c.nminor/hyperRatio {
		return transposeCSBySort(c)
	}
	t := &cs[T]{nmajor: c.nminor, nminor: c.nmajor}
	t.p = make([]int, c.nminor+1)
	nv := c.nvals()
	t.i = make([]int, nv)
	t.x = make([]T, nv)
	if nv >= transposeParallelMin && workers() > 1 && c.nminor <= nv {
		transposeParallel(c, t)
		return t
	}
	// Count entries per minor index.
	for _, j := range c.i {
		t.p[j+1]++
	}
	for k := 0; k < c.nminor; k++ {
		t.p[k+1] += t.p[k]
	}
	// Scatter. Walking stored vectors in ascending major order keeps each
	// output vector sorted.
	next := make([]int, c.nminor)
	copy(next, t.p[:c.nminor])
	for k := 0; k < c.nvecs(); k++ {
		row := c.majorOf(k)
		ci, cx := c.vec(k)
		for u := range ci {
			pos := next[ci[u]]
			next[ci[u]]++
			t.i[pos] = row
			t.x[pos] = cx[u]
		}
	}
	return t
}

// transposeParallel fills t (pre-sized) from c with the two-pass bucket
// transpose. Rows are cut at equal-entry boundaries; pass one counts each
// chunk's entries per column, a prefix turns the counts into exact write
// offsets, and pass two scatters every chunk concurrently. Entry positions
// are fully determined by the counts, so the output is identical to the
// serial transpose regardless of worker count or scheduling.
func transposeParallel[T any](c, t *cs[T]) {
	bounds := rowChunks(c.p, 1, workers())
	nchunks := len(bounds) - 1
	counts := make([][]int, nchunks)
	runChunks(bounds, func(cx, lo, hi int) {
		cnt := make([]int, c.nminor)
		for _, j := range c.i[c.p[lo]:c.p[hi]] {
			cnt[j]++
		}
		counts[cx] = cnt
	})
	// Turn per-chunk counts into within-column offsets and per-column
	// totals, then prefix the totals into the column pointer array. A
	// column reads one count a chunk.
	parallelWork(c.nminor, mxmWorkQuantum, func(int) int { return nchunks }, nil, func(jlo, jhi int) {
		for j := jlo; j < jhi; j++ {
			run := 0
			for cx := 0; cx < nchunks; cx++ {
				tmp := counts[cx][j]
				counts[cx][j] = run
				run += tmp
			}
			t.p[j+1] = run
		}
	})
	for j := 0; j < c.nminor; j++ {
		t.p[j+1] += t.p[j]
	}
	runChunks(bounds, func(cx, lo, hi int) {
		next := counts[cx]
		for k := lo; k < hi; k++ {
			row := c.majorOf(k)
			ci, vx := c.vec(k)
			for u := range ci {
				j := ci[u]
				pos := t.p[j] + next[j]
				next[j]++
				t.i[pos] = row
				t.x[pos] = vx[u]
			}
		}
	})
}

// transposeCSBySort builds a hypersparse transpose without O(nminor) work.
func transposeCSBySort[T any](c *cs[T]) *cs[T] {
	nv := c.nvals()
	is := make([]int, 0, nv) // new major = old minor
	js := make([]int, 0, nv)
	xs := make([]T, 0, nv)
	for k := 0; k < c.nvecs(); k++ {
		row := c.majorOf(k)
		ci, cx := c.vec(k)
		for u := range ci {
			is = append(is, ci[u])
			js = append(js, row)
			xs = append(xs, cx[u])
		}
	}
	t, err := assembleCS(c.nminor, c.nmajor, is, js, xs, nil)
	if err != nil {
		panic("grb: internal transpose error")
	}
	return t
}

// Transpose computes C⟨M⟩ = accum(C, Aᵀ) (Table I). With a nil mask, nil
// accumulator and default descriptor it is a plain transpose.
func Transpose[T, M any](c *Matrix[T], mask *Matrix[M], accum BinaryOp[T, T, T], a *Matrix[T], desc *Descriptor) error {
	if c == nil || a == nil {
		return opError("transpose", ErrUninitialized)
	}
	d := desc.get()
	ar, ac := a.nr, a.nc
	if d.TranA { // transpose of a transpose
		ar, ac = ac, ar
	}
	if c.nr != ac || c.nc != ar {
		return opErrorf("transpose", ErrDimensionMismatch, "C is %d×%d, Aᵀ is %d×%d", c.nr, c.nc, ac, ar)
	}
	var z *cs[T]
	if d.TranA {
		z = a.materializedCSR().clone()
	} else {
		z = transposeCS(a.materializedCSR())
	}
	return writeMatrixResult(c, mask, accum, z, d)
}

// sortDedupIndices sorts idx ascending and removes duplicates in place.
func sortDedupIndices(idx []int) []int {
	if len(idx) < 2 {
		return idx
	}
	sort.Ints(idx)
	w := 0
	for r := 1; r < len(idx); r++ {
		if idx[r] != idx[w] {
			w++
			idx[w] = idx[r]
		}
	}
	return idx[:w+1]
}
