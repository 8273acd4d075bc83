package grb

import "sort"

// Assign of Table I: C(I,J)⟨M⟩ ⊙= A and the scalar variants. The mask has
// the dimensions of the output; positions outside the I×J region are never
// modified. Single-element assignment funnels into the pending-tuple
// mechanism, which is what makes a long sequence of incremental updates
// cheap (§II-A).

// AssignVector computes w(I)⟨m⟩ ⊙= u, with nil I meaning all of w.
func AssignVector[T, M any](w *Vector[T], mask *Vector[M], accum BinaryOp[T, T, T], u *Vector[T], idx []int, desc *Descriptor) error {
	if w == nil || u == nil {
		return opError("assign", ErrUninitialized)
	}
	if err := checkIndices("assign", idx, w.n); err != nil {
		return err
	}
	un := len(idx)
	if idx == nil {
		un = w.n
	}
	if u.n != un {
		return opErrorf("assign", ErrDimensionMismatch, "u is %d, region is %d", u.n, un)
	}
	d := desc.get()

	// With no index list the region is all of w, and w⟨m⟩ ⊙= u is the
	// plain write rule on a copy of u (the rule owns its z and may adopt
	// it): exactly what extracting all of u is.
	if idx == nil {
		return ExtractVector(w, mask, accum, u, All, desc)
	}

	// Expand u into w-shaped z over the region, then apply the write rule
	// restricted to the region.
	if mask != nil && mask.n != w.n {
		return opErrorf("assign", ErrDimensionMismatch, "mask is %d, w is %d", mask.n, w.n)
	}
	zi, zx := expandOver(u, idx)
	mergeVector(w, newMaskVec(mask, d), accum, zi, zx, regionSet(idx), d.Replace)
	return nil
}

// expandOver returns u's entries moved to the positions idx names — u(t)
// lands at idx[t] — sorted by position; a nil idx names every position, so
// the entries are u's own (read only). A position idx names more than once
// takes its last u(t), present or not, as the mimic does.
func expandOver[T any](u *Vector[T], idx []int) ([]int, []T) {
	if idx == nil {
		return u.materialized()
	}
	ud, uok := u.dense()
	from := make([]int, len(idx))
	for t := range from {
		from[t] = t
	}
	sort.SliceStable(from, func(a, b int) bool { return idx[from[a]] < idx[from[b]] })
	var zi []int
	var zx []T
	for k, t := range from {
		if uok[t] && (k+1 == len(from) || idx[from[k+1]] != idx[t]) {
			zi, zx = append(zi, idx[t]), append(zx, ud[t])
		}
	}
	return zi, zx
}

// AssignVectorScalar computes w(I)⟨m⟩ ⊙= s: every admitted position in the
// region receives the scalar. This is the `levels[frontier] = depth` step
// of the Fig. 2 BFS.
func AssignVectorScalar[T, M any](w *Vector[T], mask *Vector[M], accum BinaryOp[T, T, T], s T, idx []int, desc *Descriptor) error {
	if w == nil {
		return opError("assign", ErrUninitialized)
	}
	if err := checkIndices("assign", idx, w.n); err != nil {
		return err
	}
	if mask != nil && mask.n != w.n {
		return opErrorf("assign", ErrDimensionMismatch, "mask is %d, w is %d", mask.n, w.n)
	}
	d := desc.get()

	// Over all of w the scalar is a full Z under the plain write rule. With
	// no mask or a complemented one the admitted set can only be found by
	// visiting every position, so Z is n lanes on the dense result route
	// rather than a 0..n-1 list; a positive mask *is* the admitted set, and
	// the path below costs what it holds.
	if idx == nil && bitmapCells(1, w.n) >= 0 && (mask == nil || d.Comp) {
		z := fullLanes[T](w.n)
		for j := range z.x {
			z.x[j] = s
		}
		return writeVectorLanes(w, mask, accum, z, d)
	}
	mv := newMaskVec(mask, d)

	// Enumerate admitted positions in the region.
	var zi []int
	switch {
	case idx == nil && mv != nil && !mv.comp && mv.val == nil:
		zi = mv.idx // read only below: neither route keeps or edits zi
	case idx == nil && mv != nil:
		for i := 0; i < w.n; i++ {
			if mv.allowed(i) {
				zi = append(zi, i)
			}
		}
	default:
		zi = regionList(idx, w.n)
		if mv != nil {
			keep := zi[:0]
			for _, i := range zi {
				if mv.allowed(i) {
					keep = append(keep, i)
				}
			}
			zi = keep
		}
	}
	// The scalar fills every admitted region position, so an admitted
	// position never loses its entry, and outside the region nothing
	// changes: the only deletions are Replace's, of the region positions a
	// mask rejects, and they need the merge under the real mask and region.
	w.settle()
	if d.Replace && mv != nil {
		mergeVector(w, mv, accum, zi, filled(len(zi), s), regionSet(idx), true)
		return nil
	}
	// Without them the write folds z — the scalar at exactly the admitted
	// region positions — into w: in place when w is dense-held, O(admitted
	// positions); otherwise as the merge with no mask and no region, under
	// which an entry z does not cover stays because there is an accumulator
	// (Second, z's value wins, when the caller gave none).
	if any(mask) != any(w) {
		if dn := w.writableDense(); dn != nil {
			for _, i := range zi {
				dn.put(i, s, accum)
			}
			w.sparseStale()
			return nil
		}
	}
	if accum == nil {
		accum = Second[T, T]()
	}
	mergeVector(w, nil, accum, zi, filled(len(zi), s), nil, false)
	return nil
}

// filled returns n copies of s.
func filled[T any](n int, s T) []T {
	xs := make([]T, n)
	for k := range xs {
		xs[k] = s
	}
	return xs
}

// AssignMatrix computes C(I,J)⟨M⟩ ⊙= A, with nil index lists meaning all
// rows/columns. Positions outside I×J are untouched.
func AssignMatrix[T, M any](c *Matrix[T], mask *Matrix[M], accum BinaryOp[T, T, T], a *Matrix[T], rows, cols []int, desc *Descriptor) error {
	if c == nil || a == nil {
		return opError("assign", ErrUninitialized)
	}
	if err := checkIndices("assign", rows, c.nr); err != nil {
		return err
	}
	if err := checkIndices("assign", cols, c.nc); err != nil {
		return err
	}
	anr, anc := len(rows), len(cols)
	if rows == nil {
		anr = c.nr
	}
	if cols == nil {
		anc = c.nc
	}
	if a.nr != anr || a.nc != anc {
		return opErrorf("assign", ErrDimensionMismatch, "A is %d×%d, region is %d×%d", a.nr, a.nc, anr, anc)
	}
	d := desc.get()
	ca := a.materializedCSR()

	// With no index lists the region is all of C: the plain write rule
	// (`paths += frontier` of the batched BFS is this, with an accumulator),
	// on a copy of A's entries (the rule owns its z and may adopt it).
	if rows == nil && cols == nil {
		return writeMatrixResult(c, mask, accum, ca.clone(), d)
	}

	// Expand A into a C-shaped result z.
	is := make([]int, 0, ca.nvals())
	js := make([]int, 0, ca.nvals())
	xs := make([]T, 0, ca.nvals())
	for k := 0; k < ca.nvecs(); k++ {
		srcRow := ca.majorOf(k)
		dstRow := srcRow
		if rows != nil {
			dstRow = rows[srcRow]
		}
		ci, cx := ca.vec(k)
		for t := range ci {
			dstCol := ci[t]
			if cols != nil {
				dstCol = cols[ci[t]]
			}
			is = append(is, dstRow)
			js = append(js, dstCol)
			xs = append(xs, cx[t])
		}
	}
	// Duplicate targets (duplicate indices in I or J) resolve to the last
	// written value, matching SuiteSparse behaviour.
	z, err := assembleCS(c.nr, c.nc, is, js, xs, nil)
	if err != nil {
		return err
	}

	return writeMatrixRegion(c, mask, accum, z, rows, cols, d)
}

// AssignMatrixScalar computes C(I,J)⟨M⟩ ⊙= s over every admitted region
// position.
func AssignMatrixScalar[T, M any](c *Matrix[T], mask *Matrix[M], accum BinaryOp[T, T, T], s T, rows, cols []int, desc *Descriptor) error {
	if c == nil {
		return opError("assign", ErrUninitialized)
	}
	if err := checkIndices("assign", rows, c.nr); err != nil {
		return err
	}
	if err := checkIndices("assign", cols, c.nc); err != nil {
		return err
	}
	d := desc.get()
	mm := newMaskMat(mask, d)

	// Fast path: whole-matrix scalar assign through a positive mask — the
	// levels⟨frontier⟩ = depth step of the multi-source BFS — writes
	// exactly the mask's admitted pattern; the general write rule then
	// applies mask/accum/replace semantics.
	if rows == nil && cols == nil && mm != nil && !mm.comp {
		is := make([]int, 0, 256)
		js := make([]int, 0, 256)
		xs := make([]T, 0, 256)
		mm.iterate(func(i, j int, admit bool) {
			if admit {
				is = append(is, i)
				js = append(js, j)
				xs = append(xs, s)
			}
		})
		z, err := assembleCS(c.nr, c.nc, is, js, xs, nil)
		if err != nil {
			return err
		}
		return writeMatrixResult(c, mask, accum, z, d)
	}

	rset, cset := regionList(rows, c.nr), regionList(cols, c.nc)

	is := make([]int, 0, len(rset)*len(cset))
	js := make([]int, 0, len(rset)*len(cset))
	xs := make([]T, 0, len(rset)*len(cset))
	for _, i := range rset {
		rm := mm.rowMask(i) // nil, admitting everything, under no mask
		for _, j := range cset {
			if rm.allowed(j) {
				is = append(is, i)
				js = append(js, j)
				xs = append(xs, s)
			}
		}
	}
	z, err := assembleCS(c.nr, c.nc, is, js, xs, nil)
	if err != nil {
		return err
	}
	// As with the vector scalar assign, the scalar fills every admitted
	// region position; the region rule still needs the mask, to tell a region
	// position z left empty because the mask rejects it (kept, or deleted
	// under Replace) from an admitted one (there is none).
	return writeMatrixRegion(c, mask, accum, z, rows, cols, d)
}

// regionList returns the distinct positions an index list names, ascending,
// in a fresh slice: 0..n-1 for a nil list, which means everything.
func regionList(idx []int, n int) []int {
	if idx != nil {
		return sortDedupIndices(append([]int(nil), idx...))
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	return all
}

// regionSet returns the membership test of an index list as mergeRow takes
// it: nil for a nil list, which means everything.
func regionSet(idx []int) func(int) bool {
	if idx == nil {
		return nil
	}
	set := make(map[int]struct{}, len(idx))
	for _, i := range idx {
		set[i] = struct{}{}
	}
	return func(i int) bool {
		_, ok := set[i]
		return ok
	}
}

// writeMatrixRegion is writeMatrixResult restricted to the rows × cols
// region (nil: all): positions outside it always keep their previous value.
func writeMatrixRegion[T, M any](c *Matrix[T], mask *Matrix[M], accum BinaryOp[T, T, T], z *cs[T], rows, cols []int, d descValues) error {
	if mask != nil && (mask.nr != c.nr || mask.nc != c.nc) {
		return opErrorf("assign", ErrDimensionMismatch, "mask is %d×%d, C is %d×%d", mask.nr, mask.nc, c.nr, c.nc)
	}
	mergeMatrix(c, newMaskMat(mask, d), accum, z, regionSet(rows), regionSet(cols), d.Replace)
	return nil
}
