package grb

// Element-wise operations of Table I: eWiseAdd (set union of patterns) and
// eWiseMult (set intersection).

import "slices"

// mergeUnion merges two sorted sparse rows with union semantics, growing
// the output once to the operands' bound.
func mergeUnion[A, B, C any](ai []int, ax []A, bi []int, bx []B, add BinaryOp[A, B, C], onlyA func(A) C, onlyB func(B) C, oi *[]int, ox *[]C) {
	*oi, *ox = slices.Grow(*oi, len(ai)+len(bi)), slices.Grow(*ox, len(ai)+len(bi))
	s, k := 0, 0
	for s < len(ai) || k < len(bi) {
		switch {
		case k >= len(bi) || (s < len(ai) && ai[s] < bi[k]):
			*oi = append(*oi, ai[s])
			*ox = append(*ox, onlyA(ax[s]))
			s++
		case s >= len(ai) || bi[k] < ai[s]:
			*oi = append(*oi, bi[k])
			*ox = append(*ox, onlyB(bx[k]))
			k++
		default:
			*oi = append(*oi, ai[s])
			*ox = append(*ox, add(ax[s], bx[k]))
			s++
			k++
		}
	}
}

// mergeIntersect merges two sorted sparse rows with intersection
// semantics, growing the output once to the shorter operand.
func mergeIntersect[A, B, C any](ai []int, ax []A, bi []int, bx []B, mul BinaryOp[A, B, C], oi *[]int, ox *[]C) {
	*oi, *ox = slices.Grow(*oi, min(len(ai), len(bi))), slices.Grow(*ox, min(len(ai), len(bi)))
	s, k := 0, 0
	for s < len(ai) && k < len(bi) {
		switch {
		case ai[s] < bi[k]:
			s++
		case bi[k] < ai[s]:
			k++
		default:
			*oi = append(*oi, ai[s])
			*ox = append(*ox, mul(ax[s], bx[k]))
			s++
			k++
		}
	}
}

// ewiseRow computes one output row of an element-wise operation: the
// intersection of the operands' patterns under both, or with union set
// their union, onlyA/onlyB supplying the value where one side is missing.
// rm is the row's mask view when the mask is positive (a complemented mask
// passes nil): it bounds the output pattern, so it may drive the loop.
//
// The row is computed by the cheapest of: merging the operands' sorted
// entries (today's kernel, and the only choice for an unmasked union),
// walking one operand and probing the other (intersection only), or
// walking the mask's admitted positions and probing both — a probe being
// O(1) on dense lanes and a binary search otherwise. Every route applies
// the operator to the same operands at the same positions in ascending
// order, so the choice never changes a result; a mask-driven row merely
// omits entries the write rule would have discarded.
func ewiseRow[A, B, T any](ra rowRef[A], rb rowRef[B], rm *maskVec, union bool,
	both BinaryOp[A, B, T], onlyA func(A) T, onlyB func(B) T, oi *[]int, ox *[]T) {
	const (
		byMerge = iota
		byA
		byB
		byMask
	)
	costA, costB := probeCost(ra), probeCost(rb)
	best, by := ra.span()+rb.span(), byMerge
	if rm != nil {
		if c := len(rm.idx) * (costA + costB); c < best {
			best, by = c, byMask
		}
	}
	if !union {
		if c := ra.span() * costB; c < best {
			best, by = c, byA
		}
		if c := rb.span() * costA; c < best {
			by = byB
		}
	}
	switch by {
	case byA:
		ra.each(func(j int, a A) {
			if b, ok := rb.get(j); ok {
				*oi = append(*oi, j)
				*ox = append(*ox, both(a, b))
			}
		})
	case byB:
		rb.each(func(j int, b B) {
			if a, ok := ra.get(j); ok {
				*oi = append(*oi, j)
				*ox = append(*ox, both(a, b))
			}
		})
	case byMask:
		*oi = make([]int, 0, len(rm.idx))
		*ox = make([]T, 0, len(rm.idx))
		for t, j := range rm.idx {
			if rm.val != nil && !rm.val[t] {
				continue
			}
			a, okA := ra.get(j)
			b, okB := rb.get(j)
			switch {
			case okA && okB:
				*oi = append(*oi, j)
				*ox = append(*ox, both(a, b))
			case union && okA:
				*oi = append(*oi, j)
				*ox = append(*ox, onlyA(a))
			case union && okB:
				*oi = append(*oi, j)
				*ox = append(*ox, onlyB(b))
			}
		}
	default:
		ai, ax := ra.entries()
		bi, bx := rb.entries()
		if union {
			mergeUnion(ai, ax, bi, bx, both, onlyA, onlyB, oi, ox)
		} else {
			mergeIntersect(ai, ax, bi, bx, both, oi, ox)
		}
	}
}

// ewiseLanes is ewiseRow on the dense result route: both operands are read
// by lanes (a sparse-held one through a pooled scratch) and the row is one
// pass over the n positions into pooled lanes the caller owns — the same
// operator on the same operands at every position, no index list; a nil
// onlyA (onlyB) passes the value through, A (B) then being T. The route is
// open when the mask leaves it open and the result cannot fall far below
// the operands' fill: one dense-eligible operand of a union, both of an
// intersection. A nil return means it is closed.
func ewiseLanes[A, B, T, M any](u *Vector[A], v *Vector[B], mask *Vector[M], d descValues, union bool,
	both BinaryOp[A, B, T], onlyA func(A) T, onlyB func(B) T) *bm[T] {
	n := u.n
	ra, rb := u.ref(), v.ref()
	ea, eb := ra.denseEligible(n), rb.denseEligible(n)
	if open := ea && eb || union && (ea || eb); !open || !laneMaskOpen(mask, d) {
		return nil
	}
	ab, ax, sa := ra.lanes(n)
	bb, bx, sb := rb.lanes(n)
	ab, ax, bb, bx = ab[:n], ax[:n], bb[:n], bx[:n]
	z := getLanes[T](n)
	zb, zx := z.b[:n], z.x[:n]
	switch {
	case ra.nvals == n && rb.nvals == n:
		for j := range zx {
			zb[j], zx[j] = true, both(ax[j], bx[j])
		}
		z.nvals = n
	default:
		pa, _ := any(ax).([]T)
		pb, _ := any(bx).([]T)
		for j := range zx {
			switch {
			case ab[j] && bb[j]:
				zx[j] = both(ax[j], bx[j])
			case !union || !ab[j] && !bb[j]:
				continue
			case ab[j] && onlyA == nil:
				zx[j] = pa[j]
			case ab[j]:
				zx[j] = onlyA(ax[j])
			case bb[j] && onlyB == nil:
				zx[j] = pb[j]
			default:
				zx[j] = onlyB(bx[j])
			}
			zb[j] = true
			z.nvals++
		}
	}
	ra.unlanes(sa)
	rb.unlanes(sb)
	return z
}

// positiveRowMask returns row i's mask view when mm can drive an
// element-wise row (it is present and not complemented), else nil.
func positiveRowMask(mm *maskMat, i int) *maskVec {
	if mm == nil || mm.comp {
		return nil
	}
	return mm.rowMask(i)
}

// positiveMask is positiveRowMask for a vector mask.
func positiveMask[M any](mask *Vector[M], d descValues) *maskVec {
	if mask == nil || d.Comp {
		return nil
	}
	return newMaskVec(mask, d)
}

// rowView returns the sorted entries of major index r, empty if none.
func rowView[T any](c *cs[T], r int) ([]int, []T) {
	k, ok := c.findMajor(r)
	if !ok {
		return nil, nil
	}
	return c.vec(k)
}

// orientedCSR returns the row-major view of a, or the row-major view of aᵀ
// when tran is set (which is a's column-major storage).
func orientedCSR[T any](a *Matrix[T], tran bool) *cs[T] {
	if tran {
		return a.materializedCSC()
	}
	return a.materializedCSR()
}

// matRef is a matrix operand in row-major orientation over every form
// that is currently valid: compressed storage c, dense storage d, or both.
type matRef[T any] struct {
	c *cs[T]
	d *bm[T]
}

// rowsRef completes a's pending work and returns its rows (those of aᵀ
// when tran is set, which only the column-major cache can supply) without
// converting between forms.
func rowsRef[T any](a *Matrix[T], tran bool) matRef[T] {
	if tran {
		return matRef[T]{c: a.materializedCSC()}
	}
	a.settle()
	r := matRef[T]{d: a.cachedBitmap()}
	if !a.csrStale {
		r.c = a.csr
	}
	return r
}

func (m matRef[T]) row(i int) rowRef[T] {
	r := rowRef[T]{nvals: -1}
	if m.c != nil {
		r.idx, r.x = rowView(m.c, i)
		r.sparse, r.nvals = true, len(r.idx)
	}
	if m.d != nil {
		r.b, r.dx = m.d.row(i)
	}
	return r
}

// width is the entries reading row i costs: those it stores, or every
// cell of a row held only densely.
func (m matRef[T]) width(i int) int {
	if m.c == nil {
		return m.d.nc
	}
	ri, _ := rowView(m.c, i)
	return len(ri)
}

// unionRows returns the sorted union of the stored major indices of two
// structures (used for hypersparse outputs).
func unionRows[A, B any](a *cs[A], b *cs[B]) []int {
	out := make([]int, 0, a.nvecs()+b.nvecs())
	s, k := 0, 0
	for s < a.nvecs() || k < b.nvecs() {
		switch {
		case k >= b.nvecs() || (s < a.nvecs() && a.majorOf(s) < b.majorOf(k)):
			out = append(out, a.majorOf(s))
			s++
		case s >= a.nvecs() || b.majorOf(k) < a.majorOf(s):
			out = append(out, b.majorOf(k))
			k++
		default:
			out = append(out, a.majorOf(s))
			s++
			k++
		}
	}
	return out
}

// eWiseDims validates operand dimensions under the descriptor and returns
// the output shape. op names the public entry point for error reports.
func eWiseDims[A, B any](op string, a *Matrix[A], b *Matrix[B], d descValues) (nr, nc int, err error) {
	ar, ac := a.nr, a.nc
	if d.TranA {
		ar, ac = ac, ar
	}
	br, bc := b.nr, b.nc
	if d.TranB {
		br, bc = bc, br
	}
	if ar != br || ac != bc {
		return 0, 0, opErrorf(op, ErrDimensionMismatch, "A is %d×%d, B is %d×%d", ar, ac, br, bc)
	}
	return ar, ac, nil
}

// EWiseAddMatrix computes C⟨M⟩ ⊙= A ⊕ B over the union of patterns: where
// only one operand has an entry, that value passes through unchanged.
func EWiseAddMatrix[T, M any](c *Matrix[T], mask *Matrix[M], accum BinaryOp[T, T, T], add BinaryOp[T, T, T], a, b *Matrix[T], desc *Descriptor) error {
	if c == nil || a == nil || b == nil || add == nil {
		return opError("eWiseAdd", ErrUninitialized)
	}
	d := desc.get()
	nr, nc, err := eWiseDims("eWiseAdd", a, b, d)
	if err != nil {
		return err
	}
	if c.nr != nr || c.nc != nc {
		return opErrorf("eWiseAdd", ErrDimensionMismatch, "C is %d×%d, want %d×%d", c.nr, c.nc, nr, nc)
	}
	if mask != nil && (mask.nr != nr || mask.nc != nc) {
		return opErrorf("eWiseAdd", ErrDimensionMismatch, "mask is %d×%d, C is %d×%d", mask.nr, mask.nc, nr, nc)
	}
	id := Identity[T]()
	z := ewiseRows(rowsRef(a, d.TranA), rowsRef(b, d.TranB), newMaskMat(mask, d), nr, nc, true, add, id, id)
	return writeMatrixResult(c, mask, accum, z, d)
}

// EWiseMultMatrix computes C⟨M⟩ ⊙= A ⊗ B over the intersection of
// patterns.
func EWiseMultMatrix[A, B, T, M any](c *Matrix[T], mask *Matrix[M], accum BinaryOp[T, T, T], mul BinaryOp[A, B, T], a *Matrix[A], b *Matrix[B], desc *Descriptor) error {
	if c == nil || a == nil || b == nil || mul == nil {
		return opError("eWiseMult", ErrUninitialized)
	}
	d := desc.get()
	nr, nc, err := eWiseDims("eWiseMult", a, b, d)
	if err != nil {
		return err
	}
	if c.nr != nr || c.nc != nc {
		return opErrorf("eWiseMult", ErrDimensionMismatch, "C is %d×%d, want %d×%d", c.nr, c.nc, nr, nc)
	}
	if mask != nil && (mask.nr != nr || mask.nc != nc) {
		return opErrorf("eWiseMult", ErrDimensionMismatch, "mask is %d×%d, C is %d×%d", mask.nr, mask.nc, nr, nc)
	}
	z := ewiseRows(rowsRef(a, d.TranA), rowsRef(b, d.TranB), newMaskMat(mask, d), nr, nc, false, mul, nil, nil)
	return writeMatrixResult(c, mask, accum, z, d)
}

// ewiseRows runs ewiseRow over every row that can hold output, in
// parallel. Hypersparse operands restrict the sweep to their stored rows;
// an operand held only densely has no row list, so all rows are visited.
func ewiseRows[A, B, T any](ma matRef[A], mb matRef[B], mm *maskMat, nr, nc int, union bool,
	both BinaryOp[A, B, T], onlyA func(A) T, onlyB func(B) T) *cs[T] {
	if ma.c != nil && mb.c != nil && (ma.c.h != nil || mb.c.h != nil) {
		rows := unionRows(ma.c, mb.c)
		staging := newRowSlices[T](len(rows))
		rowLen := func(k int) int { return ma.width(rows[k]) + mb.width(rows[k]) + 1 }
		parallelWork(len(rows), mxmWorkQuantum, rowLen, nil, func(lo, hi int) {
			for k := lo; k < hi; k++ {
				r := rows[k]
				ewiseRow(ma.row(r), mb.row(r), positiveRowMask(mm, r), union, both, onlyA, onlyB, &staging.idx[k], &staging.val[k])
			}
		})
		return staging.stitch(nr, nc, rows)
	}
	staging := newRowSlices[T](nr)
	rowLen := func(r int) int { return ma.width(r) + mb.width(r) + 1 }
	parallelWork(nr, mxmWorkQuantum, rowLen, nil, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			ewiseRow(ma.row(r), mb.row(r), positiveRowMask(mm, r), union, both, onlyA, onlyB, &staging.idx[r], &staging.val[r])
		}
	})
	return staging.stitch(nr, nc, nil)
}

// EWiseUnionMatrix computes C⟨M⟩ ⊙= A ⊕ B over the union of patterns,
// substituting alpha for missing A entries and beta for missing B entries
// (the GxB_eWiseUnion of the v2 API): unlike eWiseAdd, the operator is
// applied at every union position.
func EWiseUnionMatrix[T, M any](c *Matrix[T], mask *Matrix[M], accum BinaryOp[T, T, T], add BinaryOp[T, T, T], a *Matrix[T], alpha T, b *Matrix[T], beta T, desc *Descriptor) error {
	if c == nil || a == nil || b == nil || add == nil {
		return opError("eWiseUnion", ErrUninitialized)
	}
	d := desc.get()
	nr, nc, err := eWiseDims("eWiseUnion", a, b, d)
	if err != nil {
		return err
	}
	if c.nr != nr || c.nc != nc {
		return opErrorf("eWiseUnion", ErrDimensionMismatch, "C is %d×%d, want %d×%d", c.nr, c.nc, nr, nc)
	}
	if mask != nil && (mask.nr != nr || mask.nc != nc) {
		return opErrorf("eWiseUnion", ErrDimensionMismatch, "mask is %d×%d, C is %d×%d", mask.nr, mask.nc, nr, nc)
	}
	z := ewiseRows(rowsRef(a, d.TranA), rowsRef(b, d.TranB), newMaskMat(mask, d), nr, nc, true, add,
		func(x T) T { return add(x, beta) },
		func(y T) T { return add(alpha, y) })
	return writeMatrixResult(c, mask, accum, z, d)
}

// EWiseUnionVector computes w⟨m⟩ ⊙= u ⊕ v with fill values for missing
// operands.
func EWiseUnionVector[T, M any](w *Vector[T], mask *Vector[M], accum BinaryOp[T, T, T], add BinaryOp[T, T, T], u *Vector[T], alpha T, v *Vector[T], beta T, desc *Descriptor) error {
	if w == nil || u == nil || v == nil || add == nil {
		return opError("eWiseUnion", ErrUninitialized)
	}
	if u.n != v.n || w.n != u.n {
		return opErrorf("eWiseUnion", ErrDimensionMismatch, "w is %d, u is %d, v is %d", w.n, u.n, v.n)
	}
	if mask != nil && mask.n != w.n {
		return opErrorf("eWiseUnion", ErrDimensionMismatch, "mask is %d, w is %d", mask.n, w.n)
	}
	d := desc.get()
	onlyU := func(x T) T { return add(x, beta) }
	onlyV := func(y T) T { return add(alpha, y) }
	if z := ewiseLanes(u, v, mask, d, true, add, onlyU, onlyV); z != nil {
		return writeVectorLanes(w, mask, accum, z, d)
	}
	var zi []int
	var zx []T
	ewiseRow(u.ref(), v.ref(), positiveMask(mask, d), true, add, onlyU, onlyV, &zi, &zx)
	return writeVectorResult(w, mask, accum, zi, zx, d)
}

// EWiseAddVector computes w⟨m⟩ ⊙= u ⊕ v over the union of patterns.
func EWiseAddVector[T, M any](w *Vector[T], mask *Vector[M], accum BinaryOp[T, T, T], add BinaryOp[T, T, T], u, v *Vector[T], desc *Descriptor) error {
	if w == nil || u == nil || v == nil || add == nil {
		return opError("eWiseAdd", ErrUninitialized)
	}
	if u.n != v.n || w.n != u.n {
		return opErrorf("eWiseAdd", ErrDimensionMismatch, "w is %d, u is %d, v is %d", w.n, u.n, v.n)
	}
	if mask != nil && mask.n != w.n {
		return opErrorf("eWiseAdd", ErrDimensionMismatch, "mask is %d, w is %d", mask.n, w.n)
	}
	d := desc.get()
	if z := ewiseLanes[T, T, T](u, v, mask, d, true, add, nil, nil); z != nil {
		return writeVectorLanes(w, mask, accum, z, d)
	}
	var zi []int
	var zx []T
	id := Identity[T]()
	ewiseRow(u.ref(), v.ref(), positiveMask(mask, d), true, add, id, id, &zi, &zx)
	return writeVectorResult(w, mask, accum, zi, zx, d)
}

// EWiseMultVector computes w⟨m⟩ ⊙= u ⊗ v over the intersection of
// patterns.
func EWiseMultVector[A, B, T, M any](w *Vector[T], mask *Vector[M], accum BinaryOp[T, T, T], mul BinaryOp[A, B, T], u *Vector[A], v *Vector[B], desc *Descriptor) error {
	if w == nil || u == nil || v == nil || mul == nil {
		return opError("eWiseMult", ErrUninitialized)
	}
	if u.n != v.n || w.n != u.n {
		return opErrorf("eWiseMult", ErrDimensionMismatch, "w is %d, u is %d, v is %d", w.n, u.n, v.n)
	}
	if mask != nil && mask.n != w.n {
		return opErrorf("eWiseMult", ErrDimensionMismatch, "mask is %d, w is %d", mask.n, w.n)
	}
	d := desc.get()
	if z := ewiseLanes[A, B, T](u, v, mask, d, false, mul, nil, nil); z != nil {
		return writeVectorLanes(w, mask, accum, z, d)
	}
	var zi []int
	var zx []T
	ewiseRow(u.ref(), v.ref(), positiveMask(mask, d), false, mul, nil, nil, &zi, &zx)
	return writeVectorResult(w, mask, accum, zi, zx, d)
}
