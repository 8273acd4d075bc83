// Package grb is a format-invariants fixture: a miniature of the real
// package's storage types, named identically so the check's type-name
// driven analysis applies.
package grb

// cs mimics the compressed-sparse core.
type cs struct {
	p, i []int
	x    []float64
}

func (c *cs) nvals() int { return c.p[len(c.p)-1] }

// bm mimics the dense bitmap view.
type bm struct {
	b []bool
	x []float64
}

// Matrix mimics the multi-format holder.
type Matrix struct {
	csr      *cs
	csc      *cs
	bmp      *bm
	csrStale bool
	pend     []int
}

// Wait assembles pending work (exempt: format machinery).
func (a *Matrix) Wait() {
	if len(a.pend) > 0 {
		a.csr = &cs{p: []int{0}}
		a.pend = nil
		a.csc = nil
		a.bmp = nil
	}
}

// materializedCSR is the blessed accessor (exempt).
func (a *Matrix) materializedCSR() *cs {
	a.Wait()
	return a.csr
}

// cachedBitmap is the blessed bitmap probe (exempt).
func (a *Matrix) cachedBitmap() *bm {
	return a.bmp
}

// badDirectRead bypasses the accessor: even after Wait, a raw field read
// skips the format dispatch.
func (a *Matrix) badDirectRead() int {
	a.Wait()
	return a.csr.nvals() // WANT format-invariants
}

// BadBitmapPoke reads the bitmap cache without the guarded probe. The
// site is also sanitized for pending-tuples by the Wait above it, so only
// the format check fires.
func (a *Matrix) BadBitmapPoke() bool {
	a.Wait()
	v := a.bmp // WANT format-invariants
	return v != nil
}

// badColumnRead reads the column cache field directly.
func (a *Matrix) badColumnRead() *cs {
	return a.csc // WANT format-invariants
}

// goodAccessor goes through the dispatch accessor.
func (a *Matrix) goodAccessor() int {
	return a.materializedCSR().nvals()
}

// goodInvalidation writes the storage fields: mutation sites invalidate
// caches directly, which is part of the protocol, not a read.
func (a *Matrix) goodInvalidation(c *cs) {
	a.csr = c
	a.csc = nil
	a.bmp = nil
}

// badStaleProbe decides for itself which form is current instead of asking
// an accessor to rebuild the stale one.
func (a *Matrix) badStaleProbe() bool {
	return a.csrStale // WANT format-invariants
}

// markCSRStale is part of the two-form protocol (exempt): an in-place
// write to the dense form releases the compressed one.
func (a *Matrix) markCSRStale() {
	if a.bmp != nil {
		a.csr, a.csrStale = nil, true
	}
}

// Vector mimics the two-form vector: compressed arrays plus a dense form,
// either of which may be the stale one.
type Vector struct {
	idx   []int
	x     []float64
	dn    *bm
	stale bool
}

// materialized is the blessed compressed-form accessor (exempt): it
// rebuilds idx/x when the dense form was written last.
func (v *Vector) materialized() ([]int, []float64) {
	if v.stale {
		v.idx, v.x, v.stale = nil, nil, false
	}
	return v.idx, v.x
}

// badVectorCompressedRead reads the compressed arrays directly: after an
// in-place write they are a stale (released) cache.
func (v *Vector) badVectorCompressedRead() int {
	return len(v.idx) // WANT format-invariants
}

// badVectorDenseRead reads the dense store outside the accessors.
func (v *Vector) badVectorDenseRead() bool {
	return v.dn != nil && !v.stale // WANT format-invariants // WANT format-invariants
}

// settledDense is the blessed probe for an immediate element write
// (exempt): the dense form, unless pending tuples must be ordered first.
func (v *Vector) settledDense() *bm {
	return v.dn
}

// adoptLanes is part of the two-form protocol (exempt): an op's dense
// result replaces the vector's own dense form.
func (v *Vector) adoptLanes(z *bm) {
	if v.dn != nil {
		v.dn.b = nil
	}
	v.dn, v.idx, v.x, v.stale = z, nil, nil, true
}

// goodMergeElement writes in place through the probe.
func (v *Vector) goodMergeElement(i int, x float64) {
	if dn := v.settledDense(); dn != nil {
		dn.b[i], dn.x[i] = true, x
	}
}

// badMergeElement decides from the raw field that the dense form may be
// written, skipping the pending-tuple check the probe makes.
func (v *Vector) badMergeElement(i int, x float64) {
	if v.dn != nil { // WANT format-invariants
		v.dn.x[i] = x // WANT format-invariants
	}
}

// goodVectorAccessor goes through the dispatch accessor.
func (v *Vector) goodVectorAccessor() int {
	idx, _ := v.materialized()
	return len(idx)
}

// goodIgnored documents a deliberate bypass with a directive.
func (a *Matrix) goodIgnored() *cs {
	return a.csc //grblint:ignore format-invariants fixture demonstrates suppression
}
