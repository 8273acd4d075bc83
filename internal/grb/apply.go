package grb

// Apply and Select of Table I (Select is the GrB_select of the v1.3+ API,
// needed by the triangle-counting and k-truss algorithms for tril/triu and
// value thresholding).

// ApplyMatrix computes C⟨M⟩ ⊙= f(A) element-wise.
func ApplyMatrix[A, T, M any](c *Matrix[T], mask *Matrix[M], accum BinaryOp[T, T, T], f UnaryOp[A, T], a *Matrix[A], desc *Descriptor) error {
	if c == nil || a == nil || f == nil {
		return opError("apply", ErrUninitialized)
	}
	return applyIdxMatrix(c, mask, accum, func(x A, _, _ int) T { return f(x) }, a, desc)
}

// ApplyIndexMatrix computes C⟨M⟩ ⊙= f(A(i,j), i, j).
func ApplyIndexMatrix[A, T, M any](c *Matrix[T], mask *Matrix[M], accum BinaryOp[T, T, T], f IndexUnaryOp[A, T], a *Matrix[A], desc *Descriptor) error {
	if c == nil || a == nil || f == nil {
		return opError("apply", ErrUninitialized)
	}
	return applyIdxMatrix(c, mask, accum, f, a, desc)
}

func applyIdxMatrix[A, T, M any](c *Matrix[T], mask *Matrix[M], accum BinaryOp[T, T, T], f IndexUnaryOp[A, T], a *Matrix[A], desc *Descriptor) error {
	d := desc.get()
	ar, ac := a.nr, a.nc
	if d.TranA {
		ar, ac = ac, ar
	}
	if c.nr != ar || c.nc != ac {
		return opErrorf("apply", ErrDimensionMismatch, "C is %d×%d, A is %d×%d", c.nr, c.nc, ar, ac)
	}
	ca := orientedCSR(a, d.TranA)
	z := &cs[T]{nmajor: ar, nminor: ac}
	z.p = append([]int(nil), ca.p...)
	if ca.h != nil {
		z.h = append([]int(nil), ca.h...)
	}
	z.i = append([]int(nil), ca.i...)
	z.x = make([]T, len(ca.x))
	rowLen := func(k int) int { return ca.p[k+1] - ca.p[k] + 1 }
	parallelWork(ca.nvecs(), mxmWorkQuantum, rowLen, nil, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			row := ca.majorOf(k)
			for t := ca.p[k]; t < ca.p[k+1]; t++ {
				z.x[t] = f(ca.x[t], row, ca.i[t])
			}
		}
	})
	return writeMatrixResult(c, mask, accum, z, d)
}

// ApplyVector computes w⟨m⟩ ⊙= f(u) element-wise.
func ApplyVector[A, T, M any](w *Vector[T], mask *Vector[M], accum BinaryOp[T, T, T], f UnaryOp[A, T], u *Vector[A], desc *Descriptor) error {
	if w == nil || u == nil || f == nil {
		return opError("apply", ErrUninitialized)
	}
	return applyVector(w, mask, accum, f, nil, u, desc)
}

// ApplyIndexVector computes w⟨m⟩ ⊙= f(u(i), i, 0).
func ApplyIndexVector[A, T, M any](w *Vector[T], mask *Vector[M], accum BinaryOp[T, T, T], f IndexUnaryOp[A, T], u *Vector[A], desc *Descriptor) error {
	if w == nil || u == nil || f == nil {
		return opError("apply", ErrUninitialized)
	}
	return applyVector(w, mask, accum, nil, func(x A, i int) (T, bool) { return f(x, i, 0), true }, u, desc)
}

// applyVector is ApplyVector given f, ApplyIndexVector given fi instead.
func applyVector[A, T, M any](w *Vector[T], mask *Vector[M], accum BinaryOp[T, T, T], f func(A) T, fi func(A, int) (T, bool), u *Vector[A], desc *Descriptor) error {
	if w.n != u.n {
		return opErrorf("apply", ErrDimensionMismatch, "w is %d, u is %d", w.n, u.n)
	}
	if mask != nil && mask.n != w.n {
		return opErrorf("apply", ErrDimensionMismatch, "mask is %d, w is %d", mask.n, w.n)
	}
	d := desc.get()
	if z := unaryLanes(u, mask, d, f, fi); z != nil {
		return writeVectorLanes(w, mask, accum, z, d)
	}
	zi, zx := unaryRow(u.ref(), positiveMask(mask, d), true, f, fi)
	return writeVectorResult(w, mask, accum, zi, zx, d)
}

// unaryLanes is unaryRow on the dense result route: a dense-eligible
// operand under a mask that leaves the route open is mapped into pooled
// lanes the caller owns, by a pass over its own lanes (with no presence
// test when it is full) or a scatter of its entries. f maps a value; where
// it is nil, fi maps a value and its index and says whether to keep the
// result. A nil return means the route is closed.
func unaryLanes[A, T, M any](u *Vector[A], mask *Vector[M], d descValues, f func(A) T, fi func(A, int) (T, bool)) *bm[T] {
	ru := u.ref()
	if !ru.denseEligible(u.n) || !laneMaskOpen(mask, d) {
		return nil
	}
	z := getLanes[T](u.n)
	zb, zx := z.b, z.x[:len(z.b)]
	switch {
	case fi != nil:
		ru.each(func(i int, x A) {
			if y, ok := fi(x, i); ok {
				zb[i], zx[i] = true, y
				z.nvals++
			}
		})
		return z
	case ru.b == nil:
		for k, i := range ru.idx {
			zb[i], zx[i] = true, f(ru.x[k])
		}
	case ru.nvals == u.n:
		for j, x := range ru.dx[:len(zx)] {
			zb[j], zx[j] = true, f(x)
		}
	default:
		for j, ok := range ru.b[:len(zb)] {
			if ok {
				zb[j], zx[j] = true, f(ru.dx[j])
			}
		}
	}
	z.nvals = ru.nvals
	return z
}

// unaryRow maps the entries of one operand row through f (or fi, as in
// unaryLanes), keeping those fi accepts. Like ewiseRow it walks whichever
// is cheaper: the operand, or — when a positive mask rm bounds the output
// to fewer positions — the mask's admitted positions, probing the operand.
// The result is fresh; total says every entry is kept, so an
// operand-driven result can be sized exactly.
func unaryRow[A, T any](ru rowRef[A], rm *maskVec, total bool, f func(A) T, fi func(A, int) (T, bool)) ([]int, []T) {
	var zi []int
	var zx []T
	emit := func(i int, x A) {
		if f != nil {
			zi, zx = append(zi, i), append(zx, f(x))
		} else if y, ok := fi(x, i); ok {
			zi, zx = append(zi, i), append(zx, y)
		}
	}
	if rm == nil || len(rm.idx)*probeCost(ru) >= ru.span() {
		if total && ru.nvals > 0 {
			zi = make([]int, 0, ru.nvals)
			zx = make([]T, 0, ru.nvals)
		}
		ru.each(emit)
		return zi, zx
	}
	for t, i := range rm.idx {
		if rm.val != nil && !rm.val[t] {
			continue
		}
		if x, ok := ru.get(i); ok {
			emit(i, x)
		}
	}
	return zi, zx
}

// SelectMatrix computes C⟨M⟩ ⊙= A(keep), retaining only the entries for
// which keep(a, i, j) is true. tril, triu, value filters and diagonal
// extraction are all instances. keep must be a function of its arguments
// alone: it is asked about an entry once to size the result and, in a row
// kept only in part, once more to fill it.
func SelectMatrix[T, M any](c *Matrix[T], mask *Matrix[M], accum BinaryOp[T, T, T], keep IndexUnaryOp[T, bool], a *Matrix[T], desc *Descriptor) error {
	if c == nil || a == nil || keep == nil {
		return opError("select", ErrUninitialized)
	}
	d := desc.get()
	ar, ac := a.nr, a.nc
	if d.TranA {
		ar, ac = ac, ar
	}
	if c.nr != ar || c.nc != ac {
		return opErrorf("select", ErrDimensionMismatch, "C is %d×%d, A is %d×%d", c.nr, c.nc, ar, ac)
	}
	ca := orientedCSR(a, d.TranA)
	nv := ca.nvecs()
	// Count, prefix-sum, fill: two passes over A straight into exact-size
	// arrays, both under chunks that carry equal entries, not equal rows (a
	// degree-sorted operand keeps every hub in its last rows).
	rowLen := func(k int) int { return ca.p[k+1] - ca.p[k] + 1 }
	zp := make([]int, nv+1)
	parallelWork(nv, mxmWorkQuantum, rowLen, nil, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			row := ca.majorOf(k)
			ci, cx := ca.vec(k)
			kept := 0
			for t, j := range ci {
				if keep(cx[t], row, j) {
					kept++
				}
			}
			zp[k+1] = kept
		}
	})
	for k := 0; k < nv; k++ {
		zp[k+1] += zp[k]
	}
	zi, zx := make([]int, zp[nv]), make([]T, zp[nv])
	parallelWork(nv, mxmWorkQuantum, rowLen, nil, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			ci, cx := ca.vec(k)
			oi, ox := zi[zp[k]:zp[k+1]], zx[zp[k]:zp[k+1]]
			switch len(oi) {
			case 0:
			case len(ci): // kept whole
				copy(oi, ci)
				copy(ox, cx)
			default:
				row := ca.majorOf(k)
				w := 0
				for t, j := range ci {
					if keep(cx[t], row, j) {
						oi[w], ox[w] = j, cx[t]
						w++
					}
				}
			}
		}
	})
	z := &cs[T]{nmajor: ar, nminor: ac, p: zp, i: zi, x: zx}
	if ca.h != nil {
		// Hypersparse: the rows that kept nothing leave the row list.
		z.h = make([]int, 0, nv)
		z.p = make([]int, 1, nv+1)
		for k := 0; k < nv; k++ {
			if zp[k+1] > zp[k] {
				z.h = append(z.h, ca.h[k])
				z.p = append(z.p, zp[k+1])
			}
		}
	}
	return writeMatrixResult(c, mask, accum, z, d)
}

// SelectVector computes w⟨m⟩ ⊙= u(keep).
func SelectVector[T, M any](w *Vector[T], mask *Vector[M], accum BinaryOp[T, T, T], keep IndexUnaryOp[T, bool], u *Vector[T], desc *Descriptor) error {
	if w == nil || u == nil || keep == nil {
		return opError("select", ErrUninitialized)
	}
	if w.n != u.n {
		return opErrorf("select", ErrDimensionMismatch, "w is %d, u is %d", w.n, u.n)
	}
	if mask != nil && mask.n != w.n {
		return opErrorf("select", ErrDimensionMismatch, "mask is %d, w is %d", mask.n, w.n)
	}
	d := desc.get()
	fn := func(x T, i int) (T, bool) { return x, keep(x, i, 0) }
	if z := unaryLanes(u, mask, d, nil, fn); z != nil {
		return writeVectorLanes(w, mask, accum, z, d)
	}
	zi, zx := unaryRow(u.ref(), positiveMask(mask, d), false, nil, fn)
	return writeVectorResult(w, mask, accum, zi, zx, d)
}

// Common select predicates.

// Tril keeps entries on or below the k-th diagonal (j-i <= k).
func Tril[T any](k int) IndexUnaryOp[T, bool] {
	return func(_ T, i, j int) bool { return j-i <= k }
}

// Triu keeps entries on or above the k-th diagonal (j-i >= k).
func Triu[T any](k int) IndexUnaryOp[T, bool] {
	return func(_ T, i, j int) bool { return j-i >= k }
}

// Diag keeps entries exactly on the k-th diagonal.
func Diag[T any](k int) IndexUnaryOp[T, bool] {
	return func(_ T, i, j int) bool { return j-i == k }
}

// OffDiag keeps entries off the main diagonal.
func OffDiag[T any]() IndexUnaryOp[T, bool] {
	return func(_ T, i, j int) bool { return i != j }
}

// ValueGT keeps entries strictly greater than the threshold.
func ValueGT[T Number](threshold T) IndexUnaryOp[T, bool] {
	return func(x T, _, _ int) bool { return x > threshold }
}

// ValueGE keeps entries greater than or equal to the threshold.
func ValueGE[T Number](threshold T) IndexUnaryOp[T, bool] {
	return func(x T, _, _ int) bool { return x >= threshold }
}

// ValueLT keeps entries strictly less than the threshold.
func ValueLT[T Number](threshold T) IndexUnaryOp[T, bool] {
	return func(x T, _, _ int) bool { return x < threshold }
}

// ValueNE keeps entries different from the given value.
func ValueNE[T comparable](v T) IndexUnaryOp[T, bool] {
	return func(x T, _, _ int) bool { return x != v }
}

// ValueEQ keeps entries equal to the given value.
func ValueEQ[T comparable](v T) IndexUnaryOp[T, bool] {
	return func(x T, _, _ int) bool { return x == v }
}
