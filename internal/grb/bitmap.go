package grb

import "sort"

// Dense storage (§II-A: SuiteSparse's bitmap/full format family). A bm
// holds a presence flag and a value slot for every (i,j) position, giving
// O(1) random access and O(1) in-place insertion, update and deletion —
// the layout that wins when an object is dense enough that compressed
// indices cost more than they save, and the only layout in which the
// output write rule can cost O(nnz(z)) instead of O(nnz(C)): the growing
// `levels`/`paths`/`delta` accumulators of a traversal are written a
// frontier at a time, and a sorted-sparse C has to be rebuilt whole for
// every such write.
//
// bm is the one dense container for both object kinds: a Vector's dense
// form is a 1×n bm (Vector.dn), a Matrix within bitmapMaxCells may hold an
// nr×nc one (Matrix.bmp). It is a second *form*, not a view, under a
// two-way cache protocol:
//
//   - whichever form was written last is authoritative. While the dense
//     form exists every mutation (the write rule's in-place path, pending
//     tuples at assembly, RemoveElement) goes to it and marks the
//     compressed form stale; a write that produces a whole new compressed
//     result (adopt, merge) drops the dense form instead.
//   - the stale side is rebuilt lazily: materialized()/materializedCSR()
//     recompact the dense lanes, so every compressed-only kernel,
//     serialization, the store's LGSNAP frames and the wire are format
//     transparent and byte-identical. Wait() completes the compressed form
//     too, preserving "materialize before sharing": after Wait, reads of
//     either form are pure loads.
//   - a dense buffer belongs to exactly one object. It is never adopted
//     from or handed to another object (Dup copies it, Export compacts it),
//     which is what makes mutating it in place safe: compressed arrays are
//     shared by pointer all over the package (c.csr = z, Import/Export,
//     the Graph caches) and are therefore never written after they are
//     built. The one hand-over is a vector op's own result: on the dense
//     result route (writeback.go) Z is computed into lanes the call owns
//     until the write rule installs them as w.dn, and the lanes w held
//     before go back, cleared, to the scratch pool (getLanes/release) —
//     after every read of them, which is why an operand or mask that is
//     also the output is safe.
//
// Promotion is lazy and a pure function of (cells, nvals): the write rule
// builds the dense form of its output when denseWanted holds and the write
// would otherwise need a merge; assembly demotes when it no longer holds.
// No kernel reads a dense matrix operand by its lanes: vxm/mxv measured
// across fills from 50% to 100% have the compressed pull kernel winning in
// both orientations, and the dot mxm's probing variant bought at best 1.08×
// and ran on no workload (EXPERIMENTS.md), so a dense-held operand is read
// through its compressed form.
type bm[T any] struct {
	nr, nc int
	// b[i*nc+j] reports whether (i,j) holds a stored entry; x[i*nc+j] is
	// its value. Rows are contiguous.
	b []bool
	x []T
	// nvals counts the set flags.
	nvals int
}

func newBM[T any](nr, nc int) *bm[T] {
	return &bm[T]{nr: nr, nc: nc, b: make([]bool, nr*nc), x: make([]T, nr*nc)}
}

func (v *bm[T]) clone() *bm[T] {
	return &bm[T]{nr: v.nr, nc: v.nc, nvals: v.nvals,
		b: append([]bool(nil), v.b...), x: append([]T(nil), v.x...)}
}

// put stores x at cell, combining with a present value through accum
// (nil: overwrite) — the write rule at one admitted position.
func (v *bm[T]) put(cell int, x T, accum func(T, T) T) {
	if !v.b[cell] {
		v.b[cell] = true
		v.nvals++
	} else if accum != nil {
		x = accum(v.x[cell], x)
	}
	v.x[cell] = x
}

// del removes the entry at cell if present. The value slot is zeroed so a
// deleted pointer-typed value does not stay reachable.
func (v *bm[T]) del(cell int) {
	if v.b[cell] {
		var zero T
		v.b[cell] = false
		v.x[cell] = zero
		v.nvals--
	}
}

// row returns the presence and value lanes of row i.
func (v *bm[T]) row(i int) ([]bool, []T) {
	return v.b[i*v.nc : (i+1)*v.nc], v.x[i*v.nc : (i+1)*v.nc]
}

// csToBM expands a compressed structure into dense form.
func csToBM[T any](c *cs[T]) *bm[T] {
	cells := bitmapCells(c.nmajor, c.nminor)
	if cells < 0 {
		return nil
	}
	v := newBM[T](c.nmajor, c.nminor)
	v.nvals = c.nvals()
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

// bmToCS compacts dense storage back into standard compressed form, rows
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

// cachedBitmap returns the dense form if the matrix holds one, or nil,
// without triggering a build — the probe every dense-aware path starts
// from. Pending work must already be complete.
func (a *Matrix[T]) cachedBitmap() *bm[T] {
	return a.bmp
}

// getLanes returns an empty 1×n dense form drawn from the scratch pool
// (parallel.go): a vector's lanes and the scatter kernels' accumulators are
// the same two n-sized arrays, so a steady-state iteration recycles them
// instead of allocating.
func getLanes[T any](n int) *bm[T] {
	sc := getScratch[T](n)
	return &bm[T]{nr: 1, nc: n, b: sc.seen, x: sc.val}
}

// release returns v's lanes, cleared, to the scratch pool. The caller must
// be their only holder: no rowRef, maskVec or other view of them may be
// read afterwards.
func (v *bm[T]) release() {
	clear(v.b)
	putScratch(&denseScratch[T]{val: v.x, seen: v.b})
	v.b, v.x, v.nvals = nil, nil, 0
}

// fullLanes is getLanes with an entry at every position; the caller fills
// in the values.
func fullLanes[T any](n int) *bm[T] {
	v := getLanes[T](n)
	for j := range v.b {
		v.b[j] = true
	}
	v.nvals = n
	return v
}

// entriesToBM expands a vector's sorted entries into its 1×n dense form.
func entriesToBM[T any](n int, idx []int, x []T) *bm[T] {
	v := getLanes[T](n)
	v.nvals = len(idx)
	for k, i := range idx {
		v.b[i], v.x[i] = true, x[k]
	}
	return v
}

// compactLanes returns the entries stored in one row's dense lanes as
// fresh sorted arrays with room for hint entries.
func compactLanes[T any](b []bool, x []T, hint int) ([]int, []T) {
	idx := make([]int, 0, hint)
	xs := make([]T, 0, hint)
	for j, ok := range b {
		if ok {
			idx = append(idx, j)
			xs = append(xs, x[j])
		}
	}
	return idx, xs
}

// rowRef is one row of an operand (a Vector is its own single row) over
// every form that is currently valid: the sorted entries when sparse is
// set, the dense lanes when b is non-nil; at least one always is. Kernels
// iterate the compressed entries when they have them and probe the dense
// lanes when they have those, so an operand is never converted to be read.
type rowRef[T any] struct {
	idx    []int
	x      []T
	sparse bool
	b      []bool
	dx     []T
	// nvals is the stored-entry count, or -1 for a matrix row known only
	// by its dense lanes.
	nvals int
}

// get returns the entry at j: O(1) on dense lanes, O(log nvals) otherwise.
func (r rowRef[T]) get(j int) (T, bool) {
	if r.b != nil {
		return r.dx[j], r.b[j]
	}
	var zero T
	pos := sort.SearchInts(r.idx, j)
	if pos < len(r.idx) && r.idx[pos] == j {
		return r.x[pos], true
	}
	return zero, false
}

// denseEligible reports whether the dense result route reads this
// dimension-n vector operand by lanes: it is dense-held, or the promotion
// rule says a write would make it so.
func (r rowRef[T]) denseEligible(n int) bool {
	return r.b != nil || denseWanted(bitmapCells(1, n), r.nvals)
}

// lanes returns the operand's presence and value lanes: its own when it is
// dense-held, otherwise a pooled scratch of dimension n its entries are
// scattered into, which the caller hands back through unlanes.
func (r rowRef[T]) lanes(n int) ([]bool, []T, *denseScratch[T]) {
	if r.b != nil {
		return r.b, r.dx, nil
	}
	sc := getScratch[T](n)
	for k, i := range r.idx {
		sc.seen[i], sc.val[i] = true, r.x[k]
	}
	return sc.seen, sc.val, sc
}

// copyLanes returns the operand's entries in fresh pooled lanes the caller
// owns.
func (r rowRef[T]) copyLanes(n int) *bm[T] {
	z := getLanes[T](n)
	z.nvals = r.nvals
	if r.b != nil {
		copy(z.b, r.b)
		copy(z.x, r.dx)
		return z
	}
	for k, i := range r.idx {
		z.b[i], z.x[i] = true, r.x[k]
	}
	return z
}

// unlanes cleans and returns the scratch lanes handed out (nil when the
// operand was read off its own).
func (r rowRef[T]) unlanes(sc *denseScratch[T]) {
	if sc == nil {
		return
	}
	for _, i := range r.idx {
		sc.seen[i] = false
	}
	putScratch(sc)
}

// span is the number of steps each takes: what iterating this row costs.
func (r rowRef[T]) span() int {
	if r.sparse {
		return len(r.idx)
	}
	return len(r.b)
}

// each visits the stored entries in ascending index order.
func (r rowRef[T]) each(fn func(j int, x T)) {
	if r.sparse {
		for k, j := range r.idx {
			fn(j, r.x[k])
		}
		return
	}
	for j, ok := range r.b {
		if ok {
			fn(j, r.dx[j])
		}
	}
}

// entries returns the stored entries as sorted arrays: the compressed ones
// when valid (aliasing storage — read only), a fresh compaction otherwise.
func (r rowRef[T]) entries() ([]int, []T) {
	if r.sparse {
		return r.idx, r.x
	}
	return compactLanes(r.b, r.dx, max(r.nvals, 0))
}
