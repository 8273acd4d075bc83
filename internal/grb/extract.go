package grb

import "sort"

// Extract of Table I: C⟨M⟩ ⊙= A(I,J), w⟨m⟩ ⊙= u(I), and column
// extraction. A nil index slice plays the role of GrB_ALL.

// All is the nil index list standing for "all indices, in order".
var All []int = nil

// resolveIndices returns the index list, expanding All to 0..n-1 (lazily:
// a nil return means identity of length n).
func checkIndices(op string, idx []int, n int) error {
	for _, i := range idx {
		if i < 0 || i >= n {
			return opErrorf(op, ErrIndexOutOfBounds, "index %d, bound %d", i, n)
		}
	}
	return nil
}

// ExtractMatrix computes C⟨M⟩ ⊙= A(I,J): C(r,c) = A(I[r], J[c]). Nil I or
// J means all rows/columns. Duplicate indices are permitted.
func ExtractMatrix[T, M any](c *Matrix[T], mask *Matrix[M], accum BinaryOp[T, T, T], a *Matrix[T], rows, cols []int, desc *Descriptor) error {
	if c == nil || a == nil {
		return opError("extract", ErrUninitialized)
	}
	d := desc.get()
	ar, ac := a.nr, a.nc
	if d.TranA {
		ar, ac = ac, ar
	}
	if err := checkIndices("extract", rows, ar); err != nil {
		return err
	}
	if err := checkIndices("extract", cols, ac); err != nil {
		return err
	}
	onr, onc := len(rows), len(cols)
	if rows == nil {
		onr = ar
	}
	if cols == nil {
		onc = ac
	}
	if c.nr != onr || c.nc != onc {
		return opErrorf("extract", ErrDimensionMismatch, "C is %d×%d, region is %d×%d", c.nr, c.nc, onr, onc)
	}
	ca := orientedCSR(a, d.TranA)

	// Map each source column to its (possibly several) output positions.
	var colTargets map[int][]int
	if cols != nil {
		colTargets = make(map[int][]int, len(cols))
		for t, j := range cols {
			colTargets[j] = append(colTargets[j], t)
		}
	}

	staging := newRowSlices[T](onr)
	gatherRow := func(out, src int) {
		si, sx := rowView(ca, src)
		if cols == nil {
			staging.idx[out] = append(staging.idx[out], si...)
			staging.val[out] = append(staging.val[out], sx...)
			return
		}
		type ent struct {
			j int
			x T
		}
		var tmp []ent
		for t := range si {
			for _, tgt := range colTargets[si[t]] {
				tmp = append(tmp, ent{tgt, sx[t]})
			}
		}
		sort.Slice(tmp, func(a, b int) bool { return tmp[a].j < tmp[b].j })
		for _, e := range tmp {
			staging.idx[out] = append(staging.idx[out], e.j)
			staging.val[out] = append(staging.val[out], e.x)
		}
	}
	parallelRanges(onr, 64, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			src := r
			if rows != nil {
				src = rows[r]
			}
			gatherRow(r, src)
		}
	})
	z := staging.stitch(onr, onc, nil)
	return writeMatrixResult(c, mask, accum, z, d)
}

// ExtractVector computes w⟨m⟩ ⊙= u(I).
func ExtractVector[T, M any](w *Vector[T], mask *Vector[M], accum BinaryOp[T, T, T], u *Vector[T], idx []int, desc *Descriptor) error {
	if w == nil || u == nil {
		return opError("extract", ErrUninitialized)
	}
	if err := checkIndices("extract", idx, u.n); err != nil {
		return err
	}
	on := len(idx)
	if idx == nil {
		on = u.n
	}
	if w.n != on {
		return opErrorf("extract", ErrDimensionMismatch, "w is %d, region is %d", w.n, on)
	}
	d := desc.get()
	ru := u.ref()
	// Dense result route: a dense-eligible u is gathered into pooled lanes
	// in the order of the index list — a lane copy for All, an O(1) probe
	// per index when u has lanes — with no search and no sort.
	if ru.denseEligible(u.n) && bitmapCells(1, on) >= 0 && laneMaskOpen(mask, d) {
		if idx == nil {
			return writeVectorLanes(w, mask, accum, ru.copyLanes(on), d)
		}
		z := getLanes[T](on)
		for t, src := range idx {
			if x, ok := ru.get(src); ok {
				z.b[t], z.x[t] = true, x
				z.nvals++
			}
		}
		return writeVectorLanes(w, mask, accum, z, d)
	}
	if idx == nil {
		zi, zx := u.ExtractTuples()
		return writeVectorResult(w, mask, accum, zi, zx, d)
	}
	// Output positions ascend with t, so z is built sorted.
	var zi []int
	var zx []T
	for t, src := range idx {
		if x, ok := ru.get(src); ok {
			zi = append(zi, t)
			zx = append(zx, x)
		}
	}
	return writeVectorResult(w, mask, accum, zi, zx, d)
}

// ExtractMatrixCol computes w⟨m⟩ ⊙= A(I,j), one column of A (or one row
// with TranA).
func ExtractMatrixCol[T, M any](w *Vector[T], mask *Vector[M], accum BinaryOp[T, T, T], a *Matrix[T], rows []int, j int, desc *Descriptor) error {
	if w == nil || a == nil {
		return opError("extract", ErrUninitialized)
	}
	d := desc.get()
	// Column extraction reads A in column-major order; with TranA it is a
	// row of A, read in row-major order.
	var col *cs[T]
	var dim int
	if d.TranA {
		col = a.materializedCSR()
		dim = a.nc
	} else {
		col = a.materializedCSC()
		dim = a.nr
	}
	if j < 0 || j >= col.nmajor {
		return opErrorf("extract", ErrIndexOutOfBounds, "column %d, bound %d", j, col.nmajor)
	}
	if err := checkIndices("extract", rows, dim); err != nil {
		return err
	}
	on := len(rows)
	if rows == nil {
		on = dim
	}
	if w.n != on {
		return opErrorf("extract", ErrDimensionMismatch, "w is %d, region is %d", w.n, on)
	}
	ci, cx := rowView(col, j)
	var zi []int
	var zx []T
	if rows == nil {
		zi = append(zi, ci...)
		zx = append(zx, cx...)
	} else {
		type ent struct {
			i int
			x T
		}
		var tmp []ent
		for t, src := range rows {
			pos := sort.SearchInts(ci, src)
			if pos < len(ci) && ci[pos] == src {
				tmp = append(tmp, ent{t, cx[pos]})
			}
		}
		sort.Slice(tmp, func(a, b int) bool { return tmp[a].i < tmp[b].i })
		for _, e := range tmp {
			zi = append(zi, e.i)
			zx = append(zx, e.x)
		}
	}
	// The write rule here treats w as a plain vector result.
	dd := d
	dd.TranA = false
	return writeVectorResult(w, mask, accum, zi, zx, dd)
}
