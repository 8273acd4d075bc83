package grb

import "sort"

// Apply with a bound scalar operand — the GrB_apply overloads with a
// BinaryOp and a scalar (first or second) from the v1.3 C API. LAGraph
// algorithms use these constantly (scale a vector, compare against a
// threshold, add a constant), so they are provided directly rather than
// through closures.

// ApplyVectorBind1st computes w⟨m⟩ ⊙= f(s, u(i)) element-wise.
func ApplyVectorBind1st[S, A, T, M any](w *Vector[T], mask *Vector[M], accum BinaryOp[T, T, T], f BinaryOp[S, A, T], s S, u *Vector[A], desc *Descriptor) error {
	if f == nil {
		return opError("apply", ErrUninitialized)
	}
	return ApplyVector(w, mask, accum, func(x A) T { return f(s, x) }, u, desc)
}

// ApplyVectorBind2nd computes w⟨m⟩ ⊙= f(u(i), s) element-wise.
func ApplyVectorBind2nd[A, S, T, M any](w *Vector[T], mask *Vector[M], accum BinaryOp[T, T, T], f BinaryOp[A, S, T], u *Vector[A], s S, desc *Descriptor) error {
	if f == nil {
		return opError("apply", ErrUninitialized)
	}
	return ApplyVector(w, mask, accum, func(x A) T { return f(x, s) }, u, desc)
}

// ApplyMatrixBind1st computes C⟨M⟩ ⊙= f(s, A(i,j)) element-wise.
func ApplyMatrixBind1st[S, A, T, M any](c *Matrix[T], mask *Matrix[M], accum BinaryOp[T, T, T], f BinaryOp[S, A, T], s S, a *Matrix[A], desc *Descriptor) error {
	if f == nil {
		return opError("apply", ErrUninitialized)
	}
	return ApplyMatrix(c, mask, accum, func(x A) T { return f(s, x) }, a, desc)
}

// ApplyMatrixBind2nd computes C⟨M⟩ ⊙= f(A(i,j), s) element-wise.
func ApplyMatrixBind2nd[A, S, T, M any](c *Matrix[T], mask *Matrix[M], accum BinaryOp[T, T, T], f BinaryOp[A, S, T], a *Matrix[A], s S, desc *Descriptor) error {
	if f == nil {
		return opError("apply", ErrUninitialized)
	}
	return ApplyMatrix(c, mask, accum, func(x A) T { return f(x, s) }, a, desc)
}

// DiagMatrix builds the (n+|k|)×(n+|k|) matrix whose k-th diagonal holds
// the entries of v (GrB_Matrix_diag).
func DiagMatrix[T any](v *Vector[T], k int) (*Matrix[T], error) {
	if v == nil {
		return nil, opError("diag", ErrUninitialized)
	}
	idx, xs := v.materialized()
	n := v.n
	dim := n
	if k > 0 {
		dim = n + k
	} else if k < 0 {
		dim = n - k
	}
	a := MustMatrix[T](dim, dim)
	is := make([]int, len(idx))
	js := make([]int, len(idx))
	for t, i := range idx {
		r, c := i, i+k
		if k < 0 {
			r, c = i-k, i
		}
		is[t] = r
		js[t] = c
	}
	// Shift produces distinct coordinates, so no dup op is needed.
	if err := a.Build(is, js, append([]T(nil), xs...), nil); err != nil {
		return nil, err
	}
	return a, nil
}

// MatrixDiag extracts the k-th diagonal of a into a vector
// (GxB_Vector_diag).
func MatrixDiag[T any](a *Matrix[T], k int) (*Vector[T], error) {
	if a == nil {
		return nil, opError("diag", ErrUninitialized)
	}
	c := a.materializedCSR()
	// Diagonal length.
	var n int
	if k >= 0 {
		n = min(a.nr, a.nc-k)
	} else {
		n = min(a.nr+k, a.nc)
	}
	if n < 0 {
		n = 0
	}
	v := MustVector[T](n)
	for kk := 0; kk < c.nvecs(); kk++ {
		i := c.majorOf(kk)
		j := i + k
		if j < 0 || j >= a.nc {
			continue
		}
		ci, cx := c.vec(kk)
		pos := sort.SearchInts(ci, j)
		if pos < len(ci) && ci[pos] == j {
			var t int
			if k >= 0 {
				t = i
			} else {
				t = j
			}
			if t < n {
				_ = v.SetElement(t, cx[pos])
			}
		}
	}
	v.Wait()
	return v, nil
}

// Resize changes the dimensions of the matrix in place, dropping entries
// that fall outside the new bounds (GrB_Matrix_resize).
func (a *Matrix[T]) Resize(nrows, ncols int) error {
	if nrows < 0 || ncols < 0 {
		return opErrorf("resize", ErrInvalidValue, "want %d×%d", nrows, ncols)
	}
	is, js, xs := a.ExtractTuples()
	w := 0
	for k := range is {
		if is[k] < nrows && js[k] < ncols {
			is[w], js[w], xs[w] = is[k], js[k], xs[k]
			w++
		}
	}
	is, js, xs = is[:w], js[:w], xs[:w]
	a.nr, a.nc = nrows, ncols
	a.setCSR(emptyCS[T](nrows, ncols))
	if w > 0 {
		return a.Build(is, js, xs, nil)
	}
	return nil
}

// Resize changes the dimension of the vector in place, dropping entries
// beyond the new size (GrB_Vector_resize).
func (v *Vector[T]) Resize(n int) error {
	if n < 0 {
		return opErrorf("resize", ErrInvalidValue, "want %d", n)
	}
	idx, x := v.materialized()
	w := sort.SearchInts(idx, n) // sorted: the survivors are a prefix
	v.setSparse(idx[:w], x[:w])
	v.n = n
	return nil
}
