// Package ref is the dense reference mimic of the GraphBLAS semantics,
// reproducing the testing methodology of SuiteSparse:GraphBLAS described
// in §II-A of the paper: each operation is written a second time in the
// simplest possible style — dense value arrays with a separate Boolean
// pattern, triply-nested-loop matrix multiply — so it can be visually
// inspected for conformance to the specification, and the fast sparse
// kernels are tested for exact value-and-pattern equality against it.
//
// Nothing in this package is intended to be fast.
package ref

import "lagraph/internal/grb"

// Mat is a dense matrix with an explicit stored-entry pattern.
type Mat[T any] struct {
	NRows, NCols int
	Val          [][]T
	Set          [][]bool
}

// Vec is a dense vector with an explicit stored-entry pattern.
type Vec[T any] struct {
	N   int
	Val []T
	Set []bool
}

// Desc carries the descriptor settings the mimic honours.
type Desc struct {
	TranA, TranB bool
	Replace      bool
	Comp         bool
	MaskValue    bool
}

// fold is every reduction's accumulator: the first term added is its value,
// and each later one folds in by op, in the order added.
type fold[T any] struct {
	x  T
	ok bool // a term was added
}

func (r *fold[T]) add(op grb.BinaryOp[T, T, T], x T) {
	if r.ok {
		r.x = op(r.x, x)
	} else {
		r.x, r.ok = x, true
	}
}

// NewMat returns an empty dense matrix.
func NewMat[T any](nr, nc int) *Mat[T] {
	m := &Mat[T]{NRows: nr, NCols: nc}
	m.Val = make([][]T, nr)
	m.Set = make([][]bool, nr)
	for i := range m.Val {
		m.Val[i] = make([]T, nc)
		m.Set[i] = make([]bool, nc)
	}
	return m
}

// NewVec returns an empty dense vector.
func NewVec[T any](n int) *Vec[T] {
	return &Vec[T]{N: n, Val: make([]T, n), Set: make([]bool, n)}
}

// FromMatrix converts a grb.Matrix into its dense mimic.
func FromMatrix[T any](a *grb.Matrix[T]) *Mat[T] {
	m := NewMat[T](a.Nrows(), a.Ncols())
	is, js, xs := a.ExtractTuples()
	for k := range is {
		m.Val[is[k]][js[k]] = xs[k]
		m.Set[is[k]][js[k]] = true
	}
	return m
}

// FromVector converts a grb.Vector into its dense mimic.
func FromVector[T any](v *grb.Vector[T]) *Vec[T] {
	m := NewVec[T](v.Size())
	is, xs := v.ExtractTuples()
	for k := range is {
		m.Val[is[k]] = xs[k]
		m.Set[is[k]] = true
	}
	return m
}

// ToMatrix converts the mimic back into a grb.Matrix.
func (m *Mat[T]) ToMatrix() *grb.Matrix[T] {
	a := grb.MustMatrix[T](m.NRows, m.NCols)
	var is, js []int
	var xs []T
	for i := 0; i < m.NRows; i++ {
		for j := 0; j < m.NCols; j++ {
			if m.Set[i][j] {
				is = append(is, i)
				js = append(js, j)
				xs = append(xs, m.Val[i][j])
			}
		}
	}
	if err := a.Build(is, js, xs, nil); err != nil {
		panic(err)
	}
	return a
}

// ToVector converts the mimic back into a grb.Vector.
func (v *Vec[T]) ToVector() *grb.Vector[T] {
	a := grb.MustVector[T](v.N)
	for i := 0; i < v.N; i++ {
		if v.Set[i] {
			_ = a.SetElement(i, v.Val[i])
		}
	}
	a.Wait()
	return a
}

// maybeTranspose returns a (or aᵀ) as a fresh dense matrix.
func maybeTranspose[T any](a *Mat[T], t bool) *Mat[T] {
	if !t {
		return a
	}
	z := NewMat[T](a.NCols, a.NRows)
	for i := 0; i < a.NRows; i++ {
		for j := 0; j < a.NCols; j++ {
			z.Val[j][i] = a.Val[i][j]
			z.Set[j][i] = a.Set[i][j]
		}
	}
	return z
}

// matAllowed evaluates the mask at (i,j) per the spec: no mask admits
// everything; a structural mask admits stored positions; a value mask
// additionally requires the stored bool to be true; Comp inverts.
func matAllowed[M any](mask *Mat[M], d Desc, i, j int) bool {
	if mask == nil {
		return !d.Comp || true // nil mask admits all (Comp of no mask is still all)
	}
	in := mask.Set[i][j]
	if in && d.MaskValue {
		if bv, ok := any(mask.Val[i][j]).(bool); ok {
			in = bv
		}
	}
	if d.Comp {
		return !in
	}
	return in
}

func vecAllowed[M any](mask *Vec[M], d Desc, i int) bool {
	if mask == nil {
		return true
	}
	in := mask.Set[i]
	if in && d.MaskValue {
		if bv, ok := any(mask.Val[i]).(bool); ok {
			in = bv
		}
	}
	if d.Comp {
		return !in
	}
	return in
}

// writeMat applies the spec's write rule C⟨M,replace⟩ ⊙= Z position by
// position.
func writeMat[T, M any](c *Mat[T], mask *Mat[M], accum grb.BinaryOp[T, T, T], z *Mat[T], d Desc) {
	for i := 0; i < c.NRows; i++ {
		for j := 0; j < c.NCols; j++ {
			if matAllowed(mask, d, i, j) {
				switch {
				case z.Set[i][j] && c.Set[i][j] && accum != nil:
					c.Val[i][j] = accum(c.Val[i][j], z.Val[i][j])
				case z.Set[i][j]:
					c.Val[i][j] = z.Val[i][j]
					c.Set[i][j] = true
				case accum == nil:
					c.Set[i][j] = false
					var zero T
					c.Val[i][j] = zero
				}
			} else if d.Replace {
				c.Set[i][j] = false
				var zero T
				c.Val[i][j] = zero
			}
		}
	}
}

func writeVec[T, M any](w *Vec[T], mask *Vec[M], accum grb.BinaryOp[T, T, T], z *Vec[T], d Desc) {
	for i := 0; i < w.N; i++ {
		if vecAllowed(mask, d, i) {
			switch {
			case z.Set[i] && w.Set[i] && accum != nil:
				w.Val[i] = accum(w.Val[i], z.Val[i])
			case z.Set[i]:
				w.Val[i] = z.Val[i]
				w.Set[i] = true
			case accum == nil:
				w.Set[i] = false
				var zero T
				w.Val[i] = zero
			}
		} else if d.Replace {
			w.Set[i] = false
			var zero T
			w.Val[i] = zero
		}
	}
}

// MxM computes C⟨M⟩ ⊙= A ⊕.⊗ B with a brute-force triple loop.
func MxM[A, B, T, M any](c *Mat[T], mask *Mat[M], accum grb.BinaryOp[T, T, T], s grb.Semiring[A, B, T], a *Mat[A], b *Mat[B], d Desc) {
	ae := maybeTranspose(a, d.TranA)
	be := maybeTranspose(b, d.TranB)
	z := NewMat[T](ae.NRows, be.NCols)
	for i := 0; i < ae.NRows; i++ {
		for j := 0; j < be.NCols; j++ {
			var r fold[T]
			for k := 0; k < ae.NCols; k++ {
				if ae.Set[i][k] && be.Set[k][j] {
					r.add(s.Add.Op, s.Mul(ae.Val[i][k], be.Val[k][j]))
				}
			}
			z.Val[i][j], z.Set[i][j] = r.x, r.ok
		}
	}
	writeMat(c, mask, accum, z, d)
}

// VxM computes w⟨m⟩ ⊙= uᵀ ⊕.⊗ A.
func VxM[A, U, T, M any](w *Vec[T], mask *Vec[M], accum grb.BinaryOp[T, T, T], s grb.Semiring[U, A, T], u *Vec[U], a *Mat[A], d Desc) {
	ae := maybeTranspose(a, d.TranA)
	z := NewVec[T](ae.NCols)
	for j := 0; j < ae.NCols; j++ {
		var r fold[T]
		for i := 0; i < ae.NRows; i++ {
			if u.Set[i] && ae.Set[i][j] {
				r.add(s.Add.Op, s.Mul(u.Val[i], ae.Val[i][j]))
			}
		}
		z.Val[j], z.Set[j] = r.x, r.ok
	}
	writeVec(w, mask, accum, z, d)
}

// MxV computes w⟨m⟩ ⊙= A ⊕.⊗ u.
func MxV[A, U, T, M any](w *Vec[T], mask *Vec[M], accum grb.BinaryOp[T, T, T], s grb.Semiring[A, U, T], a *Mat[A], u *Vec[U], d Desc) {
	ae := maybeTranspose(a, d.TranA)
	z := NewVec[T](ae.NRows)
	for i := 0; i < ae.NRows; i++ {
		var r fold[T]
		for j := 0; j < ae.NCols; j++ {
			if ae.Set[i][j] && u.Set[j] {
				r.add(s.Add.Op, s.Mul(ae.Val[i][j], u.Val[j]))
			}
		}
		z.Val[i], z.Set[i] = r.x, r.ok
	}
	writeVec(w, mask, accum, z, d)
}

// EWiseAddMat computes C⟨M⟩ ⊙= A ⊕ B over the union of patterns.
func EWiseAddMat[T, M any](c *Mat[T], mask *Mat[M], accum grb.BinaryOp[T, T, T], add grb.BinaryOp[T, T, T], a, b *Mat[T], d Desc) {
	ae := maybeTranspose(a, d.TranA)
	be := maybeTranspose(b, d.TranB)
	z := NewMat[T](ae.NRows, ae.NCols)
	for i := 0; i < ae.NRows; i++ {
		for j := 0; j < ae.NCols; j++ {
			switch {
			case ae.Set[i][j] && be.Set[i][j]:
				z.Val[i][j] = add(ae.Val[i][j], be.Val[i][j])
				z.Set[i][j] = true
			case ae.Set[i][j]:
				z.Val[i][j] = ae.Val[i][j]
				z.Set[i][j] = true
			case be.Set[i][j]:
				z.Val[i][j] = be.Val[i][j]
				z.Set[i][j] = true
			}
		}
	}
	writeMat(c, mask, accum, z, d)
}

// EWiseMultMat computes C⟨M⟩ ⊙= A ⊗ B over the intersection of patterns.
func EWiseMultMat[A, B, T, M any](c *Mat[T], mask *Mat[M], accum grb.BinaryOp[T, T, T], mul grb.BinaryOp[A, B, T], a *Mat[A], b *Mat[B], d Desc) {
	ae := maybeTranspose(a, d.TranA)
	be := maybeTranspose(b, d.TranB)
	z := NewMat[T](ae.NRows, ae.NCols)
	for i := 0; i < ae.NRows; i++ {
		for j := 0; j < ae.NCols; j++ {
			if ae.Set[i][j] && be.Set[i][j] {
				z.Val[i][j] = mul(ae.Val[i][j], be.Val[i][j])
				z.Set[i][j] = true
			}
		}
	}
	writeMat(c, mask, accum, z, d)
}

// EWiseAddVec computes w⟨m⟩ ⊙= u ⊕ v.
func EWiseAddVec[T, M any](w *Vec[T], mask *Vec[M], accum grb.BinaryOp[T, T, T], add grb.BinaryOp[T, T, T], u, v *Vec[T], d Desc) {
	z := NewVec[T](u.N)
	for i := 0; i < u.N; i++ {
		switch {
		case u.Set[i] && v.Set[i]:
			z.Val[i] = add(u.Val[i], v.Val[i])
			z.Set[i] = true
		case u.Set[i]:
			z.Val[i] = u.Val[i]
			z.Set[i] = true
		case v.Set[i]:
			z.Val[i] = v.Val[i]
			z.Set[i] = true
		}
	}
	writeVec(w, mask, accum, z, d)
}

// EWiseMultVec computes w⟨m⟩ ⊙= u ⊗ v.
func EWiseMultVec[A, B, T, M any](w *Vec[T], mask *Vec[M], accum grb.BinaryOp[T, T, T], mul grb.BinaryOp[A, B, T], u *Vec[A], v *Vec[B], d Desc) {
	z := NewVec[T](u.N)
	for i := 0; i < u.N; i++ {
		if u.Set[i] && v.Set[i] {
			z.Val[i] = mul(u.Val[i], v.Val[i])
			z.Set[i] = true
		}
	}
	writeVec(w, mask, accum, z, d)
}

// Apply computes C⟨M⟩ ⊙= f(A).
func Apply[A, T, M any](c *Mat[T], mask *Mat[M], accum grb.BinaryOp[T, T, T], f grb.UnaryOp[A, T], a *Mat[A], d Desc) {
	ae := maybeTranspose(a, d.TranA)
	z := NewMat[T](ae.NRows, ae.NCols)
	for i := 0; i < ae.NRows; i++ {
		for j := 0; j < ae.NCols; j++ {
			if ae.Set[i][j] {
				z.Val[i][j] = f(ae.Val[i][j])
				z.Set[i][j] = true
			}
		}
	}
	writeMat(c, mask, accum, z, d)
}

// Select computes C⟨M⟩ ⊙= A(keep).
func Select[T, M any](c *Mat[T], mask *Mat[M], accum grb.BinaryOp[T, T, T], keep grb.IndexUnaryOp[T, bool], a *Mat[T], d Desc) {
	ae := maybeTranspose(a, d.TranA)
	z := NewMat[T](ae.NRows, ae.NCols)
	for i := 0; i < ae.NRows; i++ {
		for j := 0; j < ae.NCols; j++ {
			if ae.Set[i][j] && keep(ae.Val[i][j], i, j) {
				z.Val[i][j] = ae.Val[i][j]
				z.Set[i][j] = true
			}
		}
	}
	writeMat(c, mask, accum, z, d)
}

// ReduceMatToVec computes w⟨m⟩ ⊙= ⊕ⱼ A(:,j).
func ReduceMatToVec[T, M any](w *Vec[T], mask *Vec[M], accum grb.BinaryOp[T, T, T], mon grb.Monoid[T], a *Mat[T], d Desc) {
	ae := maybeTranspose(a, d.TranA)
	z := NewVec[T](ae.NRows)
	for i := 0; i < ae.NRows; i++ {
		var r fold[T]
		for j := 0; j < ae.NCols; j++ {
			if ae.Set[i][j] {
				r.add(mon.Op, ae.Val[i][j])
			}
		}
		z.Val[i], z.Set[i] = r.x, r.ok
	}
	writeVec(w, mask, accum, z, d)
}

// ReduceMatToScalar reduces all entries in row-major order; an empty A
// reduces to the identity.
func ReduceMatToScalar[T any](mon grb.Monoid[T], a *Mat[T]) T {
	var r fold[T]
	for i := 0; i < a.NRows; i++ {
		for j := 0; j < a.NCols; j++ {
			if a.Set[i][j] {
				r.add(mon.Op, a.Val[i][j])
			}
		}
	}
	if !r.ok {
		return mon.Identity
	}
	return r.x
}

// Transpose computes C⟨M⟩ ⊙= Aᵀ.
func Transpose[T, M any](c *Mat[T], mask *Mat[M], accum grb.BinaryOp[T, T, T], a *Mat[T], d Desc) {
	z := maybeTranspose(a, !d.TranA)
	zc := NewMat[T](z.NRows, z.NCols)
	for i := range z.Val {
		copy(zc.Val[i], z.Val[i])
		copy(zc.Set[i], z.Set[i])
	}
	writeMat(c, mask, accum, zc, d)
}

// Extract computes C⟨M⟩ ⊙= A(I,J) (nil index = all).
func Extract[T, M any](c *Mat[T], mask *Mat[M], accum grb.BinaryOp[T, T, T], a *Mat[T], rows, cols []int, d Desc) {
	ae := maybeTranspose(a, d.TranA)
	if rows == nil {
		rows = iota(ae.NRows)
	}
	if cols == nil {
		cols = iota(ae.NCols)
	}
	z := NewMat[T](len(rows), len(cols))
	for r, i := range rows {
		for t, j := range cols {
			if ae.Set[i][j] {
				z.Val[r][t] = ae.Val[i][j]
				z.Set[r][t] = true
			}
		}
	}
	writeMat(c, mask, accum, z, d)
}

// Assign computes C(I,J)⟨M⟩ ⊙= A; positions outside I×J are untouched.
func Assign[T, M any](c *Mat[T], mask *Mat[M], accum grb.BinaryOp[T, T, T], a *Mat[T], rows, cols []int, d Desc) {
	if rows == nil {
		rows = iota(c.NRows)
	}
	if cols == nil {
		cols = iota(c.NCols)
	}
	// Expand A to C shape (later writes win for duplicate indices).
	z := NewMat[T](c.NRows, c.NCols)
	inRegion := NewMat[bool](c.NRows, c.NCols)
	for r, i := range rows {
		for t, j := range cols {
			inRegion.Set[i][j] = true
			z.Set[i][j] = a.Set[r][t]
			z.Val[i][j] = a.Val[r][t]
		}
	}
	for i := 0; i < c.NRows; i++ {
		for j := 0; j < c.NCols; j++ {
			if !inRegion.Set[i][j] {
				continue // untouched outside the region
			}
			if matAllowed(mask, d, i, j) {
				switch {
				case z.Set[i][j] && c.Set[i][j] && accum != nil:
					c.Val[i][j] = accum(c.Val[i][j], z.Val[i][j])
				case z.Set[i][j]:
					c.Val[i][j] = z.Val[i][j]
					c.Set[i][j] = true
				case accum == nil:
					c.Set[i][j] = false
				}
			} else if d.Replace {
				c.Set[i][j] = false
			}
		}
	}
}

// ApplyVec computes w⟨m⟩ ⊙= f(u).
func ApplyVec[A, T, M any](w *Vec[T], mask *Vec[M], accum grb.BinaryOp[T, T, T], f grb.UnaryOp[A, T], u *Vec[A], d Desc) {
	z := NewVec[T](u.N)
	for i := 0; i < u.N; i++ {
		if u.Set[i] {
			z.Val[i] = f(u.Val[i])
			z.Set[i] = true
		}
	}
	writeVec(w, mask, accum, z, d)
}

// SelectVec computes w⟨m⟩ ⊙= u(keep).
func SelectVec[T, M any](w *Vec[T], mask *Vec[M], accum grb.BinaryOp[T, T, T], keep grb.IndexUnaryOp[T, bool], u *Vec[T], d Desc) {
	z := NewVec[T](u.N)
	for i := 0; i < u.N; i++ {
		if u.Set[i] && keep(u.Val[i], i, 0) {
			z.Val[i] = u.Val[i]
			z.Set[i] = true
		}
	}
	writeVec(w, mask, accum, z, d)
}

// ExtractVec computes w⟨m⟩ ⊙= u(I) (nil = all).
func ExtractVec[T, M any](w *Vec[T], mask *Vec[M], accum grb.BinaryOp[T, T, T], u *Vec[T], idx []int, d Desc) {
	if idx == nil {
		idx = iota(u.N)
	}
	z := NewVec[T](len(idx))
	for t, src := range idx {
		if u.Set[src] {
			z.Val[t] = u.Val[src]
			z.Set[t] = true
		}
	}
	writeVec(w, mask, accum, z, d)
}

// AssignVec computes w(I)⟨m⟩ ⊙= u; positions outside I are untouched.
func AssignVec[T, M any](w *Vec[T], mask *Vec[M], accum grb.BinaryOp[T, T, T], u *Vec[T], idx []int, d Desc) {
	if idx == nil {
		idx = iota(w.N)
	}
	z := NewVec[T](w.N)
	inRegion := make([]bool, w.N)
	for t, target := range idx {
		inRegion[target] = true
		z.Set[target] = u.Set[t]
		z.Val[target] = u.Val[t]
	}
	for i := 0; i < w.N; i++ {
		if !inRegion[i] {
			continue
		}
		if vecAllowed(mask, d, i) {
			switch {
			case z.Set[i] && w.Set[i] && accum != nil:
				w.Val[i] = accum(w.Val[i], z.Val[i])
			case z.Set[i]:
				w.Val[i] = z.Val[i]
				w.Set[i] = true
			case accum == nil:
				w.Set[i] = false
			}
		} else if d.Replace {
			w.Set[i] = false
		}
	}
}

func iota(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}
