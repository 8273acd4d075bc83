package grb

import (
	"cmp"
	"slices"
	"sort"
	"sync"

	"lagraph/internal/obs"
)

// cs is a compressed-sparse structure in one orientation: row-major when
// used as CSR, column-major when used as CSC. "Major" is the compressed
// dimension (rows for CSR), "minor" the index dimension.
type cs[T any] struct {
	nmajor, nminor int
	// p has length nvecs+1; entries of stored vector k occupy
	// i[p[k]:p[k+1]] and x[p[k]:p[k+1]], with i sorted ascending.
	p []int
	// h is nil for standard storage (nvecs == nmajor, vector k is major
	// index k). For hypersparse storage h lists, in ascending order, the
	// major index of each stored vector.
	h []int
	i []int
	x []T
}

func (c *cs[T]) nvecs() int {
	return len(c.p) - 1
}

func (c *cs[T]) nvals() int {
	return c.p[len(c.p)-1]
}

// majorOf returns the major index of stored vector k.
func (c *cs[T]) majorOf(k int) int {
	if c.h == nil {
		return k
	}
	return c.h[k]
}

// findMajor returns the stored-vector slot for major index j, or ok=false
// if j has no stored vector (always true for standard storage).
func (c *cs[T]) findMajor(j int) (int, bool) {
	if c.h == nil {
		return j, true
	}
	k := sort.SearchInts(c.h, j)
	if k < len(c.h) && c.h[k] == j {
		return k, true
	}
	return 0, false
}

// vec returns the minor indices and values of stored vector k.
func (c *cs[T]) vec(k int) ([]int, []T) {
	lo, hi := c.p[k], c.p[k+1]
	return c.i[lo:hi], c.x[lo:hi]
}

// emptyCS returns an empty structure, hypersparse when the major
// dimension alone would make a standard pointer array the dominant cost.
// A standard one's pointers are a window on zeroPtrs, so an empty matrix —
// new, cleared or exported — costs O(1) memory in either form.
func emptyCS[T any](nmajor, nminor int) *cs[T] {
	c := &cs[T]{nmajor: nmajor, nminor: nminor}
	if nmajor >= hyperThresholdDim*hyperRatio {
		c.p = []int{0}
		c.h = []int{}
	} else {
		c.p = zeroPtrs[: nmajor+1 : nmajor+1]
	}
	return c
}

// zeroPtrs backs the pointer array of every empty standard structure. No
// kernel writes a stored pointer array; an export copies this one out
// (ownedPtrs) before a caller can.
var zeroPtrs [hyperThresholdDim * hyperRatio]int

// ownedPtrs returns p as an array its receiver may write: a fresh one when
// p is a window on zeroPtrs.
func ownedPtrs(p []int) []int {
	if len(p) > 0 && &p[0] == &zeroPtrs[0] {
		return make([]int, len(p))
	}
	return p
}

// tuple is a pending update produced by SetElement or element-wise Assign.
type tuple[T any] struct {
	i, j int
	x    T
}

// Matrix is an opaque GraphBLAS matrix holding entries of type T. The zero
// value is not usable; create matrices with NewMatrix, Build, or Import.
//
// Matrix follows the non-blocking execution model of the C API:
// single-element mutations are buffered as pending tuples (insertions) and
// zombies (deletions) and assembled lazily by the next whole-matrix
// operation or an explicit Wait.
type Matrix[T any] struct {
	nr, nc int
	csr    *cs[T] // row-major compressed form; nil while csrStale
	csc    *cs[T] // column-major cache; nil when stale
	cscMu  sync.Mutex
	// bmp is the dense form (bitmap.go) or nil. While it exists every
	// mutation goes to it; csrStale then says the compressed form is out
	// of date (and released) until materializedCSR recompacts it.
	bmp      *bm[T]
	csrStale bool

	pend   []tuple[T]
	pendOp func(T, T) T // nil means "last value wins"
	// pendBatch says the buffered tuples are one SetElements batch: a
	// later MergeElement cannot prove it uses the batch's operator.
	pendBatch bool
	nzomb     int
}

// NewMatrix creates an empty nrows-by-ncols matrix.
func NewMatrix[T any](nrows, ncols int) (*Matrix[T], error) {
	if nrows < 0 || ncols < 0 {
		return nil, opErrorf("newMatrix", ErrInvalidValue, "dims %d×%d", nrows, ncols)
	}
	return newMatrixRaw[T](nrows, ncols), nil
}

// MustMatrix is NewMatrix for static dimensions known to be valid.
func MustMatrix[T any](nrows, ncols int) *Matrix[T] {
	a, err := NewMatrix[T](nrows, ncols)
	if err != nil {
		panic(err)
	}
	return a
}

func newMatrixRaw[T any](nr, nc int) *Matrix[T] {
	return &Matrix[T]{nr: nr, nc: nc, csr: emptyCS[T](nr, nc)}
}

// Nrows returns the number of rows.
func (a *Matrix[T]) Nrows() int { return a.nr }

// Ncols returns the number of columns.
func (a *Matrix[T]) Ncols() int { return a.nc }

// Nvals returns the number of stored entries, forcing pending work to
// complete first.
func (a *Matrix[T]) Nvals() int {
	a.settle()
	return a.nvalsSettled()
}

// nvalsSettled reads the entry count off whichever form is authoritative.
// Pending work must already be complete.
func (a *Matrix[T]) nvalsSettled() int {
	if a.csrStale {
		return a.bmp.nvals
	}
	return a.csr.nvals()
}

// Clear removes all entries, keeping the dimensions.
func (a *Matrix[T]) Clear() {
	a.csr = emptyCS[T](a.nr, a.nc)
	a.csc = nil
	a.bmp, a.csrStale = nil, false
	a.pend = nil
	a.pendOp = nil
	a.pendBatch = false
	a.nzomb = 0
}

// Dup returns a deep copy.
func (a *Matrix[T]) Dup() *Matrix[T] {
	a.settle()
	b := &Matrix[T]{nr: a.nr, nc: a.nc, csrStale: a.csrStale}
	if a.csrStale {
		b.bmp = a.bmp.clone()
	} else {
		b.csr = a.csr.clone()
	}
	return b
}

func (c *cs[T]) clone() *cs[T] {
	d := &cs[T]{nmajor: c.nmajor, nminor: c.nminor}
	d.p = append([]int(nil), c.p...)
	if c.h != nil {
		d.h = append([]int(nil), c.h...)
	}
	d.i = append([]int(nil), c.i...)
	d.x = append([]T(nil), c.x...)
	return d
}

// SetElement stores a(i,j) = x, buffering the update as a pending tuple:
// a sequence of e SetElement calls costs O(e log e) total when assembled,
// not O(e·(n+e)) (paper §II-A).
func (a *Matrix[T]) SetElement(i, j int, x T) error {
	if i < 0 || i >= a.nr || j < 0 || j >= a.nc {
		return ErrIndexOutOfBounds
	}
	if a.pendOp != nil {
		// Mixed pending semantics: flush accumulating updates first.
		a.Wait()
	}
	a.pend = append(a.pend, tuple[T]{i, j, x})
	a.csc = nil
	return nil
}

// SetElements buffers a batch of updates a(is[k], js[k]) = xs[k] as
// pending tuples in one call — the batch-ingest entry point the service's
// streaming write path lands edge batches through. Validation is
// all-or-nothing: every index is bounds-checked before any tuple is
// buffered, so a rejected batch leaves the matrix exactly as it was.
//
// dup selects the duplicate-combination semantics at the next assembly:
// nil means last value wins (matching SetElement — later tuples shadow
// earlier ones and overwrite stored entries), while a non-nil dup both
// combines duplicates within the buffered batch and accumulates a
// buffered value onto an already-stored entry (matching MergeElement).
// Choosing dup therefore chooses accumulate semantics, not replace. A
// batch with a non-nil dup first assembles anything already buffered
// (operator identity is unprovable across calls), so only runs of
// last-wins batches defer assembly across batch boundaries.
//
// A sequence of batches totalling e tuples still assembles in
// O(e log e): batching changes the constant (one bounds-check loop, one
// append), not the complexity class (paper §II-A).
func (a *Matrix[T]) SetElements(is, js []int, xs []T, dup BinaryOp[T, T, T]) error {
	if len(is) != len(js) || len(is) != len(xs) {
		return ErrDimensionMismatch
	}
	for k := range is {
		if is[k] < 0 || is[k] >= a.nr || js[k] < 0 || js[k] >= a.nc {
			return ErrIndexOutOfBounds
		}
	}
	if len(is) == 0 {
		return nil
	}
	if dup == nil {
		if a.pendOp != nil {
			a.Wait() // flush accumulating updates before last-wins ones
		}
	} else {
		// Two function values cannot be compared, so a batch carrying any
		// dup assembles whatever is already buffered rather than trusting
		// it used the same operator: correctness over deferral on the
		// (rarer) accumulate path.
		if len(a.pend) > 0 || a.pendOp != nil {
			a.Wait()
		}
		a.pendOp, a.pendBatch = dup, true
	}
	// Amortised growth (an exact fit would copy everything buffered on every
	// batch, O(pending) per call and quadratic over a journal replay).
	a.pend = slices.Grow(a.pend, len(is))
	for k := range is {
		a.pend = append(a.pend, tuple[T]{is[k], js[k], xs[k]})
	}
	a.csc = nil
	return nil
}

// MergeElement buffers a(i,j) ← op(a(i,j), x) (or a(i,j)=x if absent)
// through the pending-tuple mechanism. Two operators cannot be compared, so
// buffered MergeElement calls must share one; buffered last-wins tuples or
// a SetElements batch are assembled first.
func (a *Matrix[T]) MergeElement(i, j int, x T, op BinaryOp[T, T, T]) error {
	if i < 0 || i >= a.nr || j < 0 || j >= a.nc {
		return ErrIndexOutOfBounds
	}
	if op == nil {
		return ErrUninitialized
	}
	if len(a.pend) > 0 && (a.pendOp == nil || a.pendBatch) {
		a.Wait()
	}
	a.pendOp = op
	a.pend = append(a.pend, tuple[T]{i, j, x})
	a.csc = nil
	return nil
}

// RemoveElement deletes the entry at (i,j) if present, tagging it as a
// zombie for batch reclamation at the next materialization.
func (a *Matrix[T]) RemoveElement(i, j int) error {
	if i < 0 || i >= a.nr || j < 0 || j >= a.nc {
		return ErrIndexOutOfBounds
	}
	if len(a.pend) > 0 {
		a.settle()
	}
	if a.bmp != nil {
		a.bmp.del(i*a.nc + j)
		a.markCSRStale()
		a.maybeDemote()
		return nil
	}
	c := a.csr
	k, ok := c.findMajor(i)
	if !ok {
		return nil
	}
	lo, hi := c.p[k], c.p[k+1]
	pos := lo + searchFlipped(c.i[lo:hi], j)
	if pos < hi && c.i[pos] == j { // live entry (zombies are negative)
		c.i[pos] = ^j // flip: zombie
		a.nzomb++
		a.csc = nil
	}
	return nil
}

// GetElement returns the entry at (i,j). It reports ErrNoValue if no entry
// is stored there. Reading forces pending work to complete.
func (a *Matrix[T]) GetElement(i, j int) (T, error) {
	var zero T
	if i < 0 || i >= a.nr || j < 0 || j >= a.nc {
		return zero, ErrIndexOutOfBounds
	}
	a.settle()
	if v := a.cachedBitmap(); v != nil { // O(1) random access, the bitmap's specialty
		if v.b[i*v.nc+j] {
			return v.x[i*v.nc+j], nil
		}
		return zero, ErrNoValue
	}
	c := a.materializedCSR()
	k, ok := c.findMajor(i)
	if !ok {
		return zero, ErrNoValue
	}
	lo, hi := c.p[k], c.p[k+1]
	pos := lo + sort.SearchInts(c.i[lo:hi], j)
	if pos < hi && c.i[pos] == j {
		return c.x[pos], nil
	}
	return zero, ErrNoValue
}

// Pending reports how many updates are buffered (pending tuples) and how
// many stored entries are tagged for deletion (zombies). Diagnostic.
func (a *Matrix[T]) Pending() (tuples, zombies int) {
	return len(a.pend), a.nzomb
}

// Wait forces all pending work to complete — zombies are reclaimed and
// pending tuples assembled in a single O(n + e + p log p) pass — and
// recompacts the compressed form when the dense one was written last, so
// that every later read is a pure load and the matrix can be shared by
// concurrent readers.
func (a *Matrix[T]) Wait() {
	a.settle()
	if a.csrStale {
		a.csr = bmToCS(a.bmp)
		a.csrStale = false
		a.normalizeCSR()
	}
}

// settle completes pending work in whichever form is authoritative,
// without converting between forms — what every dense-aware path calls
// instead of Wait. With an observer installed, each non-trivial assembly
// emits an op record; the no-pending early return stays allocation-free
// either way (it is on the hot path of every whole-matrix operation).
func (a *Matrix[T]) settle() {
	if a.nzomb == 0 && len(a.pend) == 0 {
		return
	}
	ob := obs.Active()
	if ob == nil {
		a.assemble()
		return
	}
	pending, zombies := len(a.pend), a.nzomb
	t0 := ob.Now()
	a.assemble()
	ob.Op(obs.OpRecord{
		Op: "wait", Kernel: "assemble",
		Rows: a.nr, Cols: a.nc,
		NnzOut:  a.nvalsSettled(),
		Pending: pending, Zombies: zombies,
		DurNanos: ob.Now() - t0,
	})
}

// setCSR installs freshly built compressed storage, which becomes the only
// form: the caches are dropped and the layout normalized.
func (a *Matrix[T]) setCSR(c *cs[T]) {
	a.csr, a.csrStale = c, false
	a.csc = nil
	a.bmp = nil
	a.normalizeCSR()
}

// markCSRStale records an in-place write to the dense form: the compressed
// storage is out of date and released.
func (a *Matrix[T]) markCSRStale() {
	a.csr, a.csrStale = nil, true
	a.csc = nil
}

// writableDense returns the dense form for an in-place write, promoting a
// settled compressed-only matrix when the promotion rule holds, or nil.
func (a *Matrix[T]) writableDense() *bm[T] {
	if a.bmp == nil && denseWanted(bitmapCells(a.nr, a.nc), a.csr.nvals()) {
		a.bmp = csToBM(a.csr)
	}
	return a.bmp
}

// maybeDemote drops a dense form the promotion rule no longer justifies.
func (a *Matrix[T]) maybeDemote() {
	if a.bmp != nil && !denseWanted(bitmapCells(a.nr, a.nc), a.bmp.nvals) {
		a.Wait()
		a.bmp = nil
	}
}

// assemble is Wait's worker: it must only run with pending work present.
// It is one sort and one merge: pendingCS makes the pending tuples a result
// z, and z meets the stored entries through the write rule's merge with no
// mask and z's fold as the accumulator, so a stored entry z does not touch
// stays and one it does is folded with z's.
func (a *Matrix[T]) assemble() {
	z, fold := pendingCS(a.pend, a.pendOp, a.nr, a.nc)
	op := a.pendOp
	a.pend = nil
	a.pendOp = nil
	a.pendBatch = false
	nz := a.nzomb
	a.nzomb = 0

	if d := a.bmp; d != nil {
		for k := 0; k < z.nvecs(); k++ {
			base := z.majorOf(k) * d.nc
			zi, zx := z.vec(k)
			for t, j := range zi {
				d.put(base+j, zx[t], op)
			}
		}
		a.markCSRStale()
		a.maybeDemote()
		return
	}

	// Assembling pending tuples into an empty matrix is exactly a Build —
	// this is what makes "a sequence of e SetElement operations as fast as
	// one Build of e tuples" (§II-A) true.
	old := a.csr
	if old.nvals() == 0 && nz == 0 {
		a.setCSR(z)
		return
	}
	// The stored arrays are read-only to the merge: a row holding a zombie
	// is handed to it as a copy of its live entries, in scratch reused from
	// row to row.
	var si []int
	var sx []T
	a.setCSR(mergeRows(old, z, func(_ int, ni []int, nx []T, oi []int, ox []T, zi []int, zx []T) ([]int, []T) {
		if zi == nil && nz == 0 { // what mergeRow would append, without the call
			return append(ni, oi...), append(nx, ox...)
		}
		if nz > 0 && slices.ContainsFunc(oi, func(j int) bool { return j < 0 }) {
			si, sx = appendLive(si[:0], sx[:0], oi, ox)
			oi, ox = si, sx
		}
		return mergeRow(ni, nx, oi, ox, zi, zx, nil, nil, fold, false)
	}))
}

// pendingCS orders pending tuples by (i, j) as Build does and folds each
// position's run left to right into a result z. The fold is the pending
// operator, or Second when there is none, so the last update wins; it is
// returned because it is also how z meets a stored entry.
func pendingCS[T any](pend []tuple[T], op func(T, T) T, nr, nc int) (*cs[T], BinaryOp[T, T, T]) {
	fold := BinaryOp[T, T, T](op)
	if fold == nil {
		fold = Second[T, T]()
	}
	is := make([]int, len(pend))
	js := make([]int, len(pend))
	xs := make([]T, len(pend))
	for k, t := range pend {
		is[k], js[k], xs[k] = t.i, t.j, t.x
	}
	z, _ := assembleCS(nr, nc, is, js, xs, fold) // only a nil fold can fail
	return z, fold
}

// appendLive appends the live entries of (oi, ox) — all but its zombies —
// to (si, sx).
func appendLive[T any](si []int, sx []T, oi []int, ox []T) ([]int, []T) {
	for t, j := range oi {
		if j >= 0 {
			si = append(si, j)
			sx = append(sx, ox[t])
		}
	}
	return si, sx
}

// normalizeCSR moves the compressed form between standard and hypersparse
// layout by the fill heuristic — a pure function of the content, so a
// matrix recompacted from its dense form serializes to the same bytes as
// its compressed twin.
func (a *Matrix[T]) normalizeCSR() {
	c := a.csr
	if c.h == nil && c.nmajor >= hyperThresholdDim {
		nonEmpty := 0
		for k := 0; k < c.nmajor; k++ {
			if c.p[k+1] > c.p[k] {
				nonEmpty++
			}
		}
		if nonEmpty < c.nmajor/hyperRatio {
			a.csr = standardToHyper(c)
		}
	} else if c.h != nil &&
		(c.nmajor < hyperThresholdDim || c.nvecs() >= c.nmajor/hyperRatio) {
		a.csr = hyperToStandard(c)
	}
}

func standardToHyper[T any](c *cs[T]) *cs[T] {
	nonEmpty := 0
	for k := 0; k < c.nmajor; k++ {
		if c.p[k+1] > c.p[k] {
			nonEmpty++
		}
	}
	h := make([]int, 0, nonEmpty)
	p := make([]int, 1, nonEmpty+1)
	for k := 0; k < c.nmajor; k++ {
		if c.p[k+1] > c.p[k] {
			h = append(h, k)
			p = append(p, c.p[k+1])
		}
	}
	return &cs[T]{nmajor: c.nmajor, nminor: c.nminor, p: p, h: h, i: c.i, x: c.x}
}

func hyperToStandard[T any](c *cs[T]) *cs[T] {
	p := make([]int, c.nmajor+1)
	for k := 0; k < c.nvecs(); k++ {
		p[c.h[k]+1] = c.p[k+1] - c.p[k]
	}
	for k := 0; k < c.nmajor; k++ {
		p[k+1] += p[k]
	}
	return &cs[T]{nmajor: c.nmajor, nminor: c.nminor, p: p, i: c.i, x: c.x}
}

// Build assembles a matrix from coordinate-form tuples, combining
// duplicates with dup (nil means duplicates are an error).
func (a *Matrix[T]) Build(is, js []int, xs []T, dup BinaryOp[T, T, T]) error {
	if len(is) != len(js) || len(is) != len(xs) {
		return opErrorf("build", ErrInvalidValue, "tuple slices have lengths %d, %d, %d", len(is), len(js), len(xs))
	}
	for k := range is {
		if is[k] < 0 || is[k] >= a.nr || js[k] < 0 || js[k] >= a.nc {
			return opErrorf("build", ErrIndexOutOfBounds, "tuple (%d,%d), matrix is %d×%d", is[k], js[k], a.nr, a.nc)
		}
	}
	// Build requires an empty matrix (buffered updates count as content).
	if len(a.pend) > 0 || a.Nvals() != 0 {
		return opErrorf("build", ErrInvalidValue, "matrix is not empty")
	}
	c, err := assembleCS(a.nr, a.nc, is, js, xs, dup)
	if err != nil {
		return err
	}
	a.setCSR(c)
	return nil
}

// tupleOrder returns the permutation that visits tuples (is[k], js[k]) in
// (major, minor, k) order — a strict total order, so both routes return
// the same permutation and duplicates stay in input order.
func tupleOrder(nmajor, nminor int, is, js []int) []int {
	if countingPays(len(is), nmajor, nminor) {
		return countingOrder(nmajor, nminor, is, js)
	}
	return comparisonOrder(is, js)
}

// countingOrder is tupleOrder by two stable counting passes, least
// significant key first: by minor index, then by major.
func countingOrder(nmajor, nminor int, is, js []int) []int {
	n := len(is)
	next := make([]int, max(nmajor, nminor)+1)
	for _, j := range js {
		next[j+1]++
	}
	for j := 0; j < nminor; j++ {
		next[j+1] += next[j]
	}
	byMinor := make([]int, n)
	for k, j := range js {
		byMinor[next[j]] = k
		next[j]++
	}
	clear(next)
	for _, i := range is {
		next[i+1]++
	}
	for i := 0; i < nmajor; i++ {
		next[i+1] += next[i]
	}
	perm := make([]int, n)
	for _, k := range byMinor {
		perm[next[is[k]]] = k
		next[is[k]]++
	}
	return perm
}

// comparisonOrder is tupleOrder by comparison sort. The order is total,
// so the permutation does not depend on the sort's algorithm.
func comparisonOrder(is, js []int) []int {
	perm := make([]int, len(is))
	for k := range perm {
		perm[k] = k
	}
	slices.SortFunc(perm, func(a, b int) int {
		return cmp.Or(cmp.Compare(is[a], is[b]), cmp.Compare(js[a], js[b]), cmp.Compare(a, b))
	})
	return perm
}

// assembleCS orders tuples by (major, minor), combines duplicates, and
// compresses them into hypersparse form (standard form is derived later by
// normalizeCSR if appropriate). Ordering the tuples is the dominant cost of
// batch build; tupleOrder makes it a pass over the entries whenever the
// dimensions allow, keeping §II-A's "as fast as batch build" property at
// scale.
func assembleCS[T any](nmajor, nminor int, is, js []int, xs []T, dup BinaryOp[T, T, T]) (*cs[T], error) {
	return compressOrdered(nmajor, nminor, tupleOrder(nmajor, nminor, is, js), is, js, xs, dup)
}

// compressOrdered compresses tuples visited in the (major, minor, k) order
// perm gives, folding duplicates left to right with dup (nil: an error).
func compressOrdered[T any](nmajor, nminor int, perm, is, js []int, xs []T, dup BinaryOp[T, T, T]) (*cs[T], error) {
	n := len(perm)
	pi := make([]int, 0, n)
	px := make([]T, 0, n)
	rows := make([]int, 0, min(n, 64)) // distinct major ids, ascending
	p := make([]int, 0, min(n, 64)+1)  // start offset of each stored row
	lastI, lastJ := -1, -1
	for _, k := range perm {
		i, j, x := is[k], js[k], xs[k]
		if i == lastI && j == lastJ {
			if dup == nil {
				return nil, ErrInvalidValue
			}
			px[len(px)-1] = dup(px[len(px)-1], x)
			continue
		}
		if i != lastI {
			rows = append(rows, i)
			p = append(p, len(pi))
		}
		pi = append(pi, j)
		px = append(px, x)
		lastI, lastJ = i, j
	}
	p = append(p, len(pi))
	if len(rows) == 0 {
		p = []int{0}
	}
	return &cs[T]{nmajor: nmajor, nminor: nminor, p: p, h: rows, i: pi, x: px}, nil
}
