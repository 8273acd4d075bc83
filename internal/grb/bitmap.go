package grb

// Bitmap storage (§II-A: SuiteSparse's fourth format family). A bitmap
// holds a presence flag and a value slot for every (i,j) position, giving
// O(1) random access and perfectly contiguous row scans — the layout that
// wins when a matrix is dense enough that compressed indices cost more
// than they save (dense frontiers, small dense blocks of a multigrid
// hierarchy, masks that admit most positions).
//
// The bitmap is a *view*: the row-major compressed structure (Matrix.csr)
// stays canonical for every matrix, so serialization, the store's LGSNAP
// frames, ExtractTuples and all compressed-only kernels are format
// transparent. Kernels that profit from O(1) access (the bitmap dot mxm,
// element reads) consult bitmapView and fall back to compressed storage
// when the view is absent. vxm/mxv never sweep the view: measured across
// fills from 50% to 100% the compressed pull kernel wins in both
// orientations (EXPERIMENTS.md) — a sweep re-derives each row's occupancy
// from the bool lane when the index arrays already encode it.
// maybeConvertFormat drops the view and bitmapView rebuilds it under the
// density thresholds below; mutations invalidate it exactly like the
// column cache.
type bm[T any] struct {
	nr, nc int
	// b[i*nc+j] reports whether (i,j) holds a stored entry; x[i*nc+j] is
	// its value. Rows are contiguous.
	b []bool
	x []T
	// nvals mirrors the canonical structure's entry count.
	nvals int
}

// Bitmap eligibility: FormatAuto builds the view only when the matrix is
// small enough that a dense array is affordable and dense enough that it
// pays. FormatBitmap forces the view whenever the cell count is
// representable (the cap still applies — a 2^40-dimension bitmap is not a
// storage format, it is an OOM).
const (
	// bitmapMaxCells caps nr*nc for any bitmap view (bools + values for
	// 2^22 cells of float64 ≈ 36 MiB, the outer edge of "cheap").
	bitmapMaxCells = 1 << 22
	// bitmapDenRatio selects the view when nvals ≥ nr*nc/bitmapDenRatio,
	// i.e. at ≥ 12.5% fill compressed indices are pure overhead.
	bitmapDenRatio = 8
)

// bitmapCells returns nr*nc if it is within the bitmap cap, or -1 when the
// product is too large (or would overflow).
func bitmapCells(nr, nc int) int {
	if nr <= 0 || nc <= 0 || nr > bitmapMaxCells || nc > bitmapMaxCells/nr {
		return -1
	}
	return nr * nc
}

// csToBM expands a compressed structure into its bitmap view.
func csToBM[T any](c *cs[T]) *bm[T] {
	cells := bitmapCells(c.nmajor, c.nminor)
	if cells < 0 {
		return nil
	}
	v := &bm[T]{
		nr: c.nmajor, nc: c.nminor,
		b:     make([]bool, cells),
		x:     make([]T, cells),
		nvals: c.nvals(),
	}
	for k := 0; k < c.nvecs(); k++ {
		base := c.majorOf(k) * c.nminor
		ci, cx := c.vec(k)
		for t := range ci {
			v.b[base+ci[t]] = true
			v.x[base+ci[t]] = cx[t]
		}
	}
	return v
}

// bmToCS compacts a bitmap view back into standard compressed form, rows
// ascending, columns ascending within each row — the unique canonical
// order, so the round trip is exact.
func bmToCS[T any](v *bm[T]) *cs[T] {
	c := &cs[T]{nmajor: v.nr, nminor: v.nc}
	c.p = make([]int, v.nr+1)
	c.i = make([]int, 0, v.nvals)
	c.x = make([]T, 0, v.nvals)
	for i := 0; i < v.nr; i++ {
		base := i * v.nc
		for j := 0; j < v.nc; j++ {
			if v.b[base+j] {
				c.i = append(c.i, j)
				c.x = append(c.x, v.x[base+j])
			}
		}
		c.p[i+1] = len(c.i)
	}
	return c
}

// bitmapView completes pending work and returns the bitmap view, building
// and caching it on first use — the exact protocol of materializedCSC, so
// a fully-materialized matrix can be shared by concurrent readers. It
// returns nil when the matrix is not bitmap-eligible (FormatCSR /
// FormatHyper, too many cells, or FormatAuto below the density bar);
// callers fall back to compressed kernels on nil. Every mutation path
// invalidates the cache (bmp = nil) exactly like the column cache.
func (a *Matrix[T]) bitmapView() *bm[T] {
	a.Wait()
	a.bmpMu.Lock()
	defer a.bmpMu.Unlock()
	if a.bmp != nil {
		return a.bmp
	}
	if !a.bitmapWanted() {
		return nil
	}
	a.bmp = csToBM(a.csr)
	return a.bmp
}

// bitmapWanted reports whether the current storage qualifies for a bitmap
// view under the configured format. Pending work must already be complete.
func (a *Matrix[T]) bitmapWanted() bool {
	c := a.csr
	cells := bitmapCells(c.nmajor, c.nminor)
	switch a.format {
	case FormatBitmap:
		return cells >= 0
	case FormatAuto:
		return cells >= 0 && c.nvals()*bitmapDenRatio >= cells
	}
	return false
}

// cachedBitmap returns the already-built bitmap view or nil, without
// triggering a build — the cheap fast-path probe for single-element reads.
// Pending work must already be complete.
func (a *Matrix[T]) cachedBitmap() *bm[T] {
	a.bmpMu.Lock()
	v := a.bmp
	a.bmpMu.Unlock()
	return v
}
