package grb

import (
	"sort"

	"lagraph/internal/obs"
)

// Vector is an opaque GraphBLAS vector of dimension n holding entries of
// type T. Entries are stored sparsely (sorted index list plus values) or,
// once the write rule has promoted the vector, densely (bitmap.go states
// the two-form protocol); single-element mutations buffer as pending
// tuples like Matrix.
type Vector[T any] struct {
	n   int
	idx []int // sorted; zombie entries flipped (^i)
	x   []T

	// dn is the dense form (a 1×n bm) or nil. While it exists every
	// mutation goes to it; stale then says idx/x are out of date (and
	// released) until materialized() recompacts them.
	dn    *bm[T]
	stale bool

	pend   []tuple[T] // in row 0: the index is j
	pendOp func(T, T) T
	nzomb  int
}

// NewVector creates an empty vector of dimension n.
func NewVector[T any](n int) (*Vector[T], error) {
	if n < 0 {
		return nil, opErrorf("newVector", ErrInvalidValue, "dim %d", n)
	}
	return &Vector[T]{n: n}, nil
}

// MustVector is NewVector for static dimensions known to be valid.
func MustVector[T any](n int) *Vector[T] {
	v, err := NewVector[T](n)
	if err != nil {
		panic(err)
	}
	return v
}

// Size returns the vector's dimension.
func (v *Vector[T]) Size() int { return v.n }

// Nvals returns the number of stored entries, forcing pending work first.
func (v *Vector[T]) Nvals() int {
	return v.ref().nvals
}

// Clear removes all entries.
func (v *Vector[T]) Clear() {
	v.idx = v.idx[:0]
	v.x = v.x[:0]
	v.dropDense()
	v.pend = nil
	v.pendOp = nil
	v.nzomb = 0
}

// Dup returns a deep copy.
func (v *Vector[T]) Dup() *Vector[T] {
	v.settle()
	w := &Vector[T]{n: v.n, stale: v.stale}
	if !v.stale {
		w.idx = append([]int(nil), v.idx...)
		w.x = append([]T(nil), v.x...)
	}
	if v.dn != nil {
		w.dn = v.dn.clone()
	}
	return w
}

// SetElement stores v(i) = x: in place when v is dense-held with nothing
// buffered, as a pending tuple otherwise.
func (v *Vector[T]) SetElement(i int, x T) error {
	if i < 0 || i >= v.n {
		return ErrIndexOutOfBounds
	}
	if dn := v.settledDense(); dn != nil {
		dn.put(i, x, nil)
		v.sparseStale()
		return nil
	}
	if v.pendOp != nil {
		v.Wait()
	}
	v.pend = append(v.pend, tuple[T]{j: i, x: x})
	return nil
}

// MergeElement computes v(i) ← op(v(i), x) (or v(i)=x if absent). On a
// dense-held vector with nothing buffered it is an O(1) update in place —
// a gather-scatter over n elements costs n, as RemoveElement already does.
// Otherwise it goes through the pending-tuple mechanism: a long sequence
// costs O(p log p) at the next materialization, all buffered updates must
// share one operator (switching forces assembly), and updates to one index
// are combined with each other before they meet the stored value, which
// equals the in-place order for an associative op.
func (v *Vector[T]) MergeElement(i int, x T, op BinaryOp[T, T, T]) error {
	if i < 0 || i >= v.n {
		return ErrIndexOutOfBounds
	}
	if op == nil {
		return ErrUninitialized
	}
	if dn := v.settledDense(); dn != nil {
		dn.put(i, x, op)
		v.sparseStale()
		return nil
	}
	if (v.pendOp == nil && len(v.pend) > 0) || (v.pendOp != nil && len(v.pend) == 0) {
		v.Wait()
	}
	v.pendOp = op
	v.pend = append(v.pend, tuple[T]{j: i, x: x})
	return nil
}

// settledDense returns the dense form when an element write may go
// straight to it: it exists and no pending tuple is waiting to be ordered
// before that write. Nil otherwise.
func (v *Vector[T]) settledDense() *bm[T] {
	if len(v.pend) > 0 {
		return nil
	}
	return v.dn
}

// RemoveElement deletes v(i) if present (zombie tagging).
func (v *Vector[T]) RemoveElement(i int) error {
	if i < 0 || i >= v.n {
		return ErrIndexOutOfBounds
	}
	if len(v.pend) > 0 {
		v.settle()
	}
	if v.dn != nil {
		v.dn.del(i)
		v.sparseStale()
		v.maybeDemote()
		return nil
	}
	pos := searchFlipped(v.idx, i)
	if pos < len(v.idx) && v.idx[pos] == i { // live entry (zombies are negative)
		v.idx[pos] = ^i
		v.nzomb++
	}
	return nil
}

// unflip recovers the index a zombie entry was flipped from.
func unflip(i int) int {
	if i < 0 {
		return ^i
	}
	return i
}

// searchFlipped binary-searches an index slice that may contain zombies:
// flipping preserves the ordering of the underlying indices, so the search
// compares unflipped values.
func searchFlipped(idx []int, i int) int {
	return sort.Search(len(idx), func(k int) bool { return unflip(idx[k]) >= i })
}

// GetElement returns v(i), or ErrNoValue if no entry is stored.
func (v *Vector[T]) GetElement(i int) (T, error) {
	var zero T
	if i < 0 || i >= v.n {
		return zero, ErrIndexOutOfBounds
	}
	if x, ok := v.ref().get(i); ok {
		return x, nil
	}
	return zero, ErrNoValue
}

// Pending reports buffered updates and zombies. Diagnostic.
func (v *Vector[T]) Pending() (tuples, zombies int) { return len(v.pend), v.nzomb }

// Wait assembles pending tuples, reclaims zombies and completes the
// compressed form when the dense one was written last, so that every later
// read — of either form — is a pure load and the vector can be shared by
// concurrent readers.
func (v *Vector[T]) Wait() {
	v.settle()
	if v.stale {
		v.idx, v.x = compactLanes(v.dn.b, v.dn.x, v.dn.nvals)
		v.stale = false
	}
}

// settle completes pending work in whichever form is authoritative,
// without converting between forms — what every dense-aware path calls
// instead of Wait. With an observer installed, each non-trivial assembly
// emits an op record; the no-pending early return stays allocation-free
// either way.
func (v *Vector[T]) settle() {
	if v.nzomb == 0 && len(v.pend) == 0 {
		return
	}
	ob := obs.Active()
	if ob == nil {
		v.assemble()
		return
	}
	pending, zombies := len(v.pend), v.nzomb
	t0 := ob.Now()
	v.assemble()
	ob.Op(obs.OpRecord{
		Op: "wait", Kernel: "assemble",
		Rows:    v.n,
		NnzOut:  v.ref().nvals,
		Pending: pending, Zombies: zombies,
		DurNanos: ob.Now() - t0,
	})
}

// ref completes pending work and returns the vector as a rowRef over every
// form that is currently valid.
func (v *Vector[T]) ref() rowRef[T] {
	v.settle()
	r := rowRef[T]{nvals: len(v.idx)}
	if !v.stale {
		r.idx, r.x, r.sparse = v.idx, v.x, true
	}
	if v.dn != nil {
		r.b, r.dx, r.nvals = v.dn.b, v.dn.x, v.dn.nvals
	}
	return r
}

// setSparse replaces the contents with freshly built compressed arrays,
// which become the only form.
func (v *Vector[T]) setSparse(idx []int, x []T) {
	v.idx, v.x = idx, x
	v.dropDense()
}

// dropDense gives up the dense form, returning its lanes to the pool. The
// compressed arrays must already hold the contents.
func (v *Vector[T]) dropDense() {
	if v.dn != nil {
		v.dn.release()
	}
	v.dn, v.stale = nil, false
}

// adoptLanes makes z — lanes the calling op owns — the vector's contents:
// as its dense form when the promotion rule wants one for that many
// entries, compacted to the sorted form (and z released) otherwise, so a
// sparse result never stays in lanes; it reports which. Pending work must
// be complete; the lanes v held before are released, so every read of them
// (v as an operand or mask of the same op) must already have happened.
func (v *Vector[T]) adoptLanes(z *bm[T]) (dense bool) {
	if !denseWanted(bitmapCells(1, v.n), z.nvals) {
		idx, x := compactLanes(z.b, z.x, z.nvals)
		z.release()
		v.setSparse(idx, x)
		return false
	}
	v.dropDense()
	v.dn = z
	v.sparseStale()
	return true
}

// sparseStale records an in-place write to the dense form: the compressed
// arrays are out of date and released.
func (v *Vector[T]) sparseStale() {
	v.idx, v.x, v.stale = nil, nil, true
}

// writableDense returns the dense form for an in-place write, promoting a
// settled compressed-only vector when the promotion rule holds, or nil.
func (v *Vector[T]) writableDense() *bm[T] {
	if v.dn == nil && denseWanted(bitmapCells(1, v.n), len(v.idx)) {
		v.dn = entriesToBM(v.n, v.idx, v.x)
	}
	return v.dn
}

// maybeDemote drops a dense form the promotion rule no longer justifies.
func (v *Vector[T]) maybeDemote() {
	if v.dn != nil && !denseWanted(bitmapCells(1, v.n), v.dn.nvals) {
		v.Wait()
		v.dropDense()
	}
}

// assemble is Wait's worker: it must only run with pending work present.
// A vector is a 1×n matrix, and assembles as Matrix.assemble does: one
// sort, then one row merge.
func (v *Vector[T]) assemble() {
	z, fold := pendingCS(v.pend, v.pendOp, 1, v.n)
	op := v.pendOp
	v.pend = nil
	v.pendOp = nil
	nz := v.nzomb
	v.nzomb = 0

	if v.dn != nil {
		for t, i := range z.i {
			v.dn.put(i, z.x[t], op)
		}
		v.sparseStale()
		v.maybeDemote()
		return
	}
	if len(v.idx) == 0 {
		v.idx, v.x = z.i, z.x
		return
	}
	oi, ox := v.idx, v.x
	if nz > 0 {
		oi, ox = appendLive(nil, nil, oi, ox)
	}
	ni := make([]int, 0, len(oi)+len(z.i))
	nx := make([]T, 0, len(oi)+len(z.i))
	v.idx, v.x = mergeRow(ni, nx, oi, ox, z.i, z.x, nil, nil, fold, false)
}

// Build assembles a vector from coordinate tuples, combining duplicates
// with dup (nil means duplicates are an error).
func (v *Vector[T]) Build(is []int, xs []T, dup BinaryOp[T, T, T]) error {
	if len(is) != len(xs) {
		return opErrorf("build", ErrInvalidValue, "tuple slices have lengths %d, %d", len(is), len(xs))
	}
	// Build requires an empty vector; staleness is unobservable because the
	// stored-entry read is paired with the pending-buffer check.
	if len(v.pend) > 0 || v.ref().nvals != 0 {
		return opErrorf("build", ErrInvalidValue, "vector is not empty")
	}
	for _, i := range is {
		if i < 0 || i >= v.n {
			return opErrorf("build", ErrIndexOutOfBounds, "index %d, dim %d", i, v.n)
		}
	}
	c, err := assembleCS(1, v.n, make([]int, len(is)), is, xs, dup)
	if err != nil {
		return err
	}
	v.setSparse(c.i, c.x)
	return nil
}

// ExtractTuples returns the stored entries as parallel slices. A vector
// whose dense form was written last is compacted straight into them: its
// compressed form stays unbuilt rather than being built to be copied.
func (v *Vector[T]) ExtractTuples() (is []int, xs []T) {
	r := v.ref()
	idx, x := r.entries()
	if !r.sparse {
		return idx, x
	}
	return append([]int(nil), idx...), append([]T(nil), x...)
}

// ImportSparse wraps a sorted index list and values as a Vector in O(1),
// taking ownership of the slices. Validation is O(nvals) unless trusted.
func ImportSparse[T any](n int, idx []int, x []T, trusted bool) (*Vector[T], error) {
	if n < 0 || len(idx) != len(x) {
		return nil, opErrorf("import", ErrInvalidValue, "dim %d, %d indices, %d values", n, len(idx), len(x))
	}
	if !trusted {
		prev := -1
		for _, i := range idx {
			if i <= prev || i >= n {
				return nil, opErrorf("import", ErrInvalidValue, "index %d out of order or out of range %d", i, n)
			}
			prev = i
		}
	}
	return &Vector[T]{n: n, idx: idx, x: x}, nil
}

// ExportSparse removes the index and value slices from the vector in O(1),
// handing ownership to the caller; the vector is emptied.
func (v *Vector[T]) ExportSparse() (n int, idx []int, x []T) {
	idx, x = v.materialized()
	v.setSparse(nil, nil)
	return v.n, idx, x
}

// DenseVector creates a vector with entries at every index, copying xs. It
// is born dense-held when the dimension allows a dense form at all.
func DenseVector[T any](xs []T) *Vector[T] {
	if bitmapCells(1, len(xs)) >= 0 {
		dn := fullLanes[T](len(xs))
		copy(dn.x, xs)
		return &Vector[T]{n: len(xs), dn: dn, stale: true}
	}
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	return &Vector[T]{n: len(xs), idx: idx, x: append([]T(nil), xs...)}
}

// materialized completes pending work and returns the internal slices.
func (v *Vector[T]) materialized() ([]int, []T) {
	v.Wait()
	return v.idx, v.x
}

// dense scatters the vector into a fresh dense slice plus presence flags.
func (v *Vector[T]) dense() ([]T, []bool) {
	xs := make([]T, v.n)
	ok := make([]bool, v.n)
	v.ref().each(func(i int, x T) {
		xs[i] = x
		ok[i] = true
	})
	return xs, ok
}
