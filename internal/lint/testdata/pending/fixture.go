// Package grb is a pending-tuples fixture: a miniature of the real
// package's storage types, named identically so the check's type-name
// driven analysis applies.
package grb

// cs mimics the compressed-sparse core.
type cs struct {
	p, h, i []int
	x       []float64
}

func (c *cs) nvals() int { return c.p[len(c.p)-1] }

// Matrix mimics the pending-tuple holder.
type Matrix struct {
	csr  *cs
	csc  *cs
	pend []int
}

// Wait assembles pending work (exempt: it is the assembler).
func (a *Matrix) Wait() {
	if len(a.pend) > 0 {
		a.csr = &cs{p: []int{0}}
		a.pend = nil
	}
}

// Clear is exempt: it replaces storage wholesale.
func (a *Matrix) Clear() {
	a.csr = &cs{p: []int{0}}
	a.pend = nil
}

// BadNvals reads csr internals with pending tuples possibly outstanding.
func (a *Matrix) BadNvals() int {
	return a.csr.nvals() // WANT pending-tuples // WANT format-invariants
}

// BadRowPointers reads the row-pointer slice directly without assembly.
func (a *Matrix) BadRowPointers() []int {
	c := a.csr // WANT pending-tuples // WANT format-invariants
	return c.p
}

// GoodNvals completes pending work first. That satisfies the pending
// check; the raw read still trips format-invariants (the real package
// uses materializedCSR, which covers both).
func (a *Matrix) GoodNvals() int {
	a.Wait()
	return a.csr.nvals() // WANT format-invariants
}

// GoodWriteOnly only assigns storage; writing a fresh csr is not a read.
func (a *Matrix) GoodWriteOnly(c *cs) {
	a.csr = c
	a.csc = nil
}

// GoodPendingOnly touches only the pending-side state.
func (a *Matrix) GoodPendingOnly(t int) {
	a.pend = append(a.pend, t)
}

// orientedCSR mimics the kernels' materializing orientation helper.
func orientedCSR(a *Matrix) *cs {
	a.Wait()
	return a.csr
}

// GoodOrientedHelper sanitizes through the helper rather than Wait
// directly, the way the real kernels do.
func (a *Matrix) GoodOrientedHelper() int {
	ca := orientedCSR(a)
	return ca.nvals()
}

// Vector mimics the two-form vector.
type Vector struct {
	idx  []int
	x    []float64
	dn   []float64
	pend []int
}

// Wait assembles the vector's pending work.
func (v *Vector) Wait() { v.pend = nil }

// settle assembles pending work without converting between forms.
func (v *Vector) settle() { v.pend = nil }

// BadVectorRead reads the index slice without assembly.
func (v *Vector) BadVectorRead() int {
	return len(v.idx) // WANT pending-tuples // WANT format-invariants
}

// BadDenseRead reads the dense form with pending tuples outstanding: they
// are applied to it at assembly, so it is as stale as the index slice.
func (v *Vector) BadDenseRead() int {
	return len(v.dn) // WANT pending-tuples // WANT format-invariants
}

// GoodVectorRead assembles first. As with GoodNvals the raw read still
// trips format-invariants (the real package uses materialized or ref).
func (v *Vector) GoodVectorRead() int {
	v.Wait()
	return len(v.idx) // WANT format-invariants
}

// GoodSettledRead sanitizes through settle, which dense-aware paths call
// instead of Wait.
func (v *Vector) GoodSettledRead() int {
	v.settle()
	return len(v.dn) // WANT format-invariants
}

// settledDense hands out the dense form only when nothing is pending.
func (v *Vector) settledDense() []float64 {
	if len(v.pend) > 0 {
		return nil
	}
	return v.dn
}

// BadMergeElement updates the dense form in place without asking whether
// buffered tuples must be applied first.
func (v *Vector) BadMergeElement(i int, x float64) {
	if v.dn != nil { // WANT pending-tuples // WANT format-invariants
		v.dn[i] += x // WANT format-invariants
	}
}

// GoodMergeElement goes through the pending-aware probe.
func (v *Vector) GoodMergeElement(i int, x float64) {
	if dn := v.settledDense(); dn != nil {
		dn[i] += x
		return
	}
	v.pend = append(v.pend, i)
}

// GoodAnnotated demonstrates a justified suppression: it reads nvals but
// pairs it with a pending-length test, so staleness cannot be observed.
func (a *Matrix) GoodAnnotated() bool {
	return a.csr.nvals() != 0 || len(a.pend) > 0 //grblint:ignore pending-tuples,format-invariants read is paired with the pend check
}
