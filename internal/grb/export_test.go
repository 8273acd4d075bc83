package grb

// Test hooks for the external test package: they put an object in the
// state an in-place write leaves it — dense form authoritative, compressed
// form stale and released — whatever its fill, so the dense paths can be
// driven at toy sizes the promotion rule would never pick.

// HoldDense makes v dense-held. It reports false when n is beyond the
// dense cell cap.
func HoldDense[T any](v *Vector[T]) bool {
	if bitmapCells(1, v.n) < 0 {
		return false
	}
	idx, x := v.materialized()
	v.dn = entriesToBM(v.n, idx, x)
	v.sparseStale()
	return true
}

// HoldDenseMatrix makes a dense-held. It reports false when nr·nc is
// beyond the dense cell cap.
func HoldDenseMatrix[T any](a *Matrix[T]) bool {
	if bitmapCells(a.nr, a.nc) < 0 {
		return false
	}
	a.bmp = csToBM(a.materializedCSR())
	a.markCSRStale()
	return true
}

// HoldHyper converts a's current storage to the hypersparse layout, the
// form the fill heuristic picks only for huge sparse matrices, so the hyper
// paths can be driven at toy sizes. Nothing is pinned: the next operation
// that rebuilds a's storage picks its layout by content again.
func HoldHyper[T any](a *Matrix[T]) {
	c := a.materializedCSR()
	a.bmp = nil
	if c.h == nil {
		a.csr = standardToHyper(c)
	}
}

// Forms reports whether v holds a dense form and whether its compressed
// form is stale, after completing pending work.
func (v *Vector[T]) Forms() (dense, compressedStale bool) {
	v.settle()
	return v.dn != nil, v.stale
}

// Forms reports whether a holds a dense form and whether its compressed
// form is stale, after completing pending work.
func (a *Matrix[T]) Forms() (dense, compressedStale bool) {
	a.settle()
	return a.bmp != nil, a.csrStale
}

// BitmapMaxCells is the dense form's cell cap: a matrix with more cells
// never takes the dense form.
const BitmapMaxCells = bitmapMaxCells

// DotScatters is mxmDot's scatter bar.
var DotScatters = dotScatters

// MxMPricing reports what MxMAuto's cost rule decides for C⟨M⟩ = A ⊕.⊗ B
// under desc: whether the dot direction runs, and whether the pull had to
// be priced to decide it.
func MxMPricing[A, B, M any](mask *Matrix[M], a *Matrix[A], b *Matrix[B], desc *Descriptor) (pull, priced bool) {
	d := desc.get()
	_, bc := orientedDims(b, d.TranB)
	return pullIsCheaper(orientedCSR(a, d.TranA), b, d.TranB, newMaskMat(mask, d), bc)
}
