package grb

// Iteration and inner products: zero-copy access patterns that LAGraph
// algorithms use to avoid materializing tuple slices.

// Iterate calls fn for every stored entry in row-major order, stopping
// early if fn returns false. It forces pending work first. The matrix
// must not be mutated during iteration.
func (a *Matrix[T]) Iterate(fn func(i, j int, x T) bool) {
	c := a.materializedCSR()
	for k := 0; k < c.nvecs(); k++ {
		row := c.majorOf(k)
		ci, cx := c.vec(k)
		for t := range ci {
			if !fn(row, ci[t], cx[t]) {
				return
			}
		}
	}
}

// IterateRow calls fn for every stored entry of row i, in column order.
func (a *Matrix[T]) IterateRow(i int, fn func(j int, x T) bool) error {
	if i < 0 || i >= a.nr {
		return opErrorf("iterateRow", ErrIndexOutOfBounds, "row %d, bound %d", i, a.nr)
	}
	ci, cx := rowView(a.materializedCSR(), i)
	for t := range ci {
		if !fn(ci[t], cx[t]) {
			return nil
		}
	}
	return nil
}

// RowIndices returns the column indices of row i's stored entries, in
// ascending order — a row's length and, by one binary search, its split at
// any column, without a callback per entry. The slice is a view of the
// matrix's storage: read-only, and valid until the matrix is next modified.
func (a *Matrix[T]) RowIndices(i int) ([]int, error) {
	if i < 0 || i >= a.nr {
		return nil, opErrorf("rowIndices", ErrIndexOutOfBounds, "row %d, bound %d", i, a.nr)
	}
	ci, _ := rowView(a.materializedCSR(), i)
	return ci, nil
}

// Iterate calls fn for every stored entry in index order, stopping early
// if fn returns false.
func (v *Vector[T]) Iterate(fn func(i int, x T) bool) {
	idx, x := v.materialized()
	for k, i := range idx {
		if !fn(i, x[k]) {
			return
		}
	}
}

// InnerProduct computes the semiring inner product uᵀ ⊕.⊗ v over the
// intersection of patterns. ok is false when the intersection is empty.
func InnerProduct[A, B, T any](s Semiring[A, B, T], u *Vector[A], v *Vector[B]) (result T, ok bool, err error) {
	var zero T
	if u == nil || v == nil || s.Add.Op == nil || s.Mul == nil {
		return zero, false, opError("innerProduct", ErrUninitialized)
	}
	if u.n != v.n {
		return zero, false, opErrorf("innerProduct", ErrDimensionMismatch, "u is %d, v is %d", u.n, v.n)
	}
	ui, ux := u.materialized()
	vi, vx := v.materialized()
	result, ok = sparseDot(ui, ux, vi, vx, s)
	return result, ok, nil
}

// ExtractMatrixRow computes w⟨m⟩ ⊙= A(i,J)ᵀ: one row of A as a vector
// (the GrB_Col_extract of Aᵀ). Nil cols means the whole row.
func ExtractMatrixRow[T, M any](w *Vector[T], mask *Vector[M], accum BinaryOp[T, T, T], a *Matrix[T], i int, cols []int, desc *Descriptor) error {
	d := &Descriptor{TranA: true}
	if desc != nil {
		dd := *desc
		dd.TranA = !dd.TranA
		d = &dd
	}
	return ExtractMatrixCol(w, mask, accum, a, cols, i, d)
}

// AssignMatrixRow computes C(i,J)⟨m⟩ ⊙= u: writes a vector into one row
// of C (GrB_Row_assign). The mask is over the row.
func AssignMatrixRow[T, M any](c *Matrix[T], mask *Vector[M], accum BinaryOp[T, T, T], u *Vector[T], i int, cols []int, desc *Descriptor) error {
	if c == nil || u == nil {
		return opError("assign", ErrUninitialized)
	}
	if i < 0 || i >= c.nr {
		return opErrorf("assign", ErrIndexOutOfBounds, "row %d, bound %d", i, c.nr)
	}
	if err := checkIndices("assign", cols, c.nc); err != nil {
		return err
	}
	un := len(cols)
	if cols == nil {
		un = c.nc
	}
	if u.n != un {
		return opErrorf("assign", ErrDimensionMismatch, "u is %d, region is %d", u.n, un)
	}
	if mask != nil && mask.n != c.nc {
		return opErrorf("assign", ErrDimensionMismatch, "mask is %d, row width is %d", mask.n, c.nc)
	}
	d := desc.get()
	mv := newMaskVec(mask, d)

	// The row's result over the region, merged into the existing row.
	zi, zx := expandOver(u, cols)
	oi, ox := rowView(c.materializedCSR(), i)
	ni, nx := mergeRow(nil, nil, oi, ox, zi, zx, mv.mergeCursor(), regionSet(cols), accum, d.Replace)

	// Rewrite row i through the tuple interface (single-row surgery).
	return c.replaceRow(i, ni, nx)
}

// replaceRow substitutes the entries of one row.
func (a *Matrix[T]) replaceRow(i int, ni []int, nx []T) error {
	old := a.materializedCSR()
	// Remove existing row entries, then insert new ones via pending
	// tuples (cheap; assembled lazily).
	if k, ok := old.findMajor(i); ok {
		ci, _ := old.vec(k)
		for _, j := range ci {
			if j >= 0 {
				_ = a.RemoveElement(i, j)
			}
		}
	}
	for t := range ni {
		_ = a.SetElement(i, ni[t], nx[t])
	}
	return nil
}
