package grb

// Test hooks for the external test package. Hold puts an object in a
// storage form its content would not pick at its size — hypersparse, or the
// state an in-place write leaves (dense form authoritative, compressed form
// stale and released) — so every form's paths can be driven at toy sizes.

// Hold puts v in form: "dense" makes it dense-held; any other form leaves
// it as it is, since a vector has no hypersparse layout. It reports false
// when n is beyond the dense cell cap.
func (v *Vector[T]) Hold(form string) bool {
	if form != "dense" {
		return true
	}
	if bitmapCells(1, v.n) < 0 {
		return false
	}
	idx, x := v.materialized()
	v.dn = entriesToBM(v.n, idx, x)
	v.sparseStale()
	return true
}

// Hold puts a in form: "hyper" converts its current storage to the
// hypersparse layout, the form the fill heuristic picks only for huge
// sparse matrices; "dense" makes it dense-held; any other form leaves it as
// it is. It reports false when nr·nc is beyond the dense cell cap. Nothing
// is pinned: the next operation that rebuilds a's storage picks its layout
// by content again.
func (a *Matrix[T]) Hold(form string) bool {
	switch form {
	case "hyper":
		c := a.materializedCSR()
		a.bmp = nil
		if c.h == nil {
			a.csr = standardToHyper(c)
		}
	case "dense":
		if bitmapCells(a.nr, a.nc) < 0 {
			return false
		}
		a.bmp = csToBM(a.materializedCSR())
		a.markCSRStale()
	}
	return true
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
