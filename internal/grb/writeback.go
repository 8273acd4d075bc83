package grb

// This file implements the C API's output write rule, shared by every
// operation: C⟨M,replace⟩ ⊙= Z, where Z is the fully-computed result of
// the operation proper. The rule (spec §2.4):
//
//   - positions admitted by the mask take the merged value: with no
//     accumulator Z replaces C there (including deletions where Z has no
//     entry); with an accumulator, C ⊙ Z where both exist, else whichever
//     exists;
//   - positions not admitted keep their previous C value, unless Replace
//     is set, in which case they are deleted.
//
// The rule is applied output-sensitively, by the cheapest of three routes:
//
//   - adopt: when C is empty, or with no accumulator and either no mask or
//     Replace, nothing of the old C survives — C becomes Z as the product
//     kernel admitted it, or Z filtered by the mask for every other op,
//     O(nnz(Z)). A product kernel (vxm, mxv, mxm) applies the mask inside
//     itself, before it orders its output, and says so (admitted): the
//     rule then takes Z as it is;
//   - in place: when C is (or by the promotion rule becomes) dense-held,
//     admitted Z entries are scattered into its dense lanes and, with no
//     accumulator, admitted positions Z left empty are cleared by a walk
//     over the positive mask's pattern — O(nnz(Z) + nnz(M)), independent
//     of nnz(C). The route is closed when deletions would need a sweep of
//     C itself: no accumulator under a complemented mask, or an
//     accumulator under a mask with Replace; and when the mask is C;
//   - merge: otherwise, the two-pointer merge of C and Z into fresh
//     compressed arrays, O(nnz(C) + nnz(Z)) — mergeRow, the one place the
//     rule's sentence above is written out position by position. With no
//     mask and no region, the tail left when one row runs out is copied
//     whole. Pending-tuple assembly is this merge too: the pending tuples
//     are Z, unmasked, and their duplicate fold is the accumulator.
//
// Z is owned by the call: its arrays may be adopted by C.
//
// Assign restricts the rule to a region I×J: positions outside it always
// keep their previous value. That is the same rule with one more test, so
// it is the same merge given a region predicate (assign.go); the plain
// rule is the region rule whose region is the whole output, predicate nil.
// Only the merge route takes a region: this file's adopt and in-place
// routes are open to whole-output writes alone (the scalar assign keeps an
// in-place arm of its own, for the one case with no deletion to make).
//
// A vector op whose operands are dense-held — or by the promotion rule
// would be — computes Z as 1×n dense lanes drawn from the scratch pool
// instead of sorted arrays (the dense result route: one pass over the
// lanes, no index list, no append, no merge), and the rule has the
// matching arms for such a Z (writeVectorLanes):
//
//   - adopt, under the same condition: Z, unless admitted, is filtered in
//     place by the mask and its lanes become w's dense form; the lanes w
//     held go back to the pool. A filtered Z below the promotion bar is
//     compacted to the sorted form first, so sparse traffic never stays in
//     lanes;
//   - in place: when w is (or by the promotion rule becomes) dense-held,
//     one sweep of the lanes applies mask, accumulator and Replace at every
//     position — Z already cost O(n), so no case needs to be closed except
//     the mask being w itself;
//   - otherwise Z is compacted and takes the merge route above.

// The route a write took, as mxm/vxm op records report it.
const (
	routeAdopt   = "adopt"
	routeInPlace = "inplace"
	routeMerge   = "merge"
	routeDense   = "dense" // dense-route Z adopted as the output's lanes
)

// scatterRow applies the in-place route to one dense row (dn's cells
// base..base+n) given the row's result entries and mask view.
func scatterRow[T any](dn *bm[T], base int, zi []int, zx []T, mv *maskVec, accum BinaryOp[T, T, T]) {
	if accum != nil {
		allowed := mv.tester(len(zi))
		for k, i := range zi {
			if allowed(i) {
				dn.put(base+i, zx[k], accum)
			}
		}
		return
	}
	// Positive mask, no accumulator: every admitted position takes Z's
	// entry or loses its own.
	k := 0
	for t, i := range mv.idx {
		if mv.val != nil && !mv.val[t] {
			continue
		}
		for k < len(zi) && zi[k] < i {
			k++
		}
		if k < len(zi) && zi[k] == i {
			dn.put(base+i, zx[k], nil)
		} else {
			dn.del(base + i)
		}
	}
}

// filterAdmitted compacts (zi, zx) in place to the entries mv admits.
func filterAdmitted[T any](zi []int, zx []T, mv *maskVec) ([]int, []T) {
	if mv == nil {
		return zi, zx
	}
	allowed := mv.tester(len(zi))
	oi, ox := zi[:0], zx[:0]
	for k, i := range zi {
		if allowed(i) {
			oi = append(oi, i)
			ox = append(ox, zx[k])
		}
	}
	return oi, ox
}

// writeVectorResult applies the write rule to vector w given result entries
// (zidx, zx) sorted ascending.
func writeVectorResult[T, M any](w *Vector[T], mask *Vector[M], accum BinaryOp[T, T, T], zidx []int, zx []T, d descValues) error {
	_, err := writeVectorRouted(w, mask, accum, zidx, zx, false, d)
	return err
}

// writeVectorRouted is writeVectorResult reporting the route it took;
// admitted says Z holds only what the mask admits.
func writeVectorRouted[T, M any](w *Vector[T], mask *Vector[M], accum BinaryOp[T, T, T], zidx []int, zx []T, admitted bool, d descValues) (string, error) {
	if mask != nil && mask.n != w.n {
		return "", opErrorf("write", ErrDimensionMismatch, "mask is %d, w is %d", mask.n, w.n)
	}
	if w.ref().nvals == 0 || (accum == nil && (mask == nil || d.Replace)) {
		if !admitted {
			zidx, zx = filterAdmitted(zidx, zx, newMaskVec(mask, d))
		}
		w.setSparse(zidx, zx)
		return routeAdopt, nil
	}
	mv := newMaskVec(mask, d)
	if inPlaceRoute(accum != nil, mv != nil, d.Comp, d.Replace) && any(mask) != any(w) {
		if dn := w.writableDense(); dn != nil {
			scatterRow(dn, 0, zidx, zx, mv, accum)
			w.sparseStale()
			w.maybeDemote()
			return routeInPlace, nil
		}
	}
	mergeVector(w, mv, accum, zidx, zx, nil, d.Replace)
	return routeMerge, nil
}

// mergeVector takes the merge route on w: its entries and z's, merged under
// mv and an optional region predicate into fresh arrays.
func mergeVector[T any](w *Vector[T], mv *maskVec, accum BinaryOp[T, T, T], zi []int, zx []T, inRegion func(int) bool, replace bool) {
	wi, wx := w.materialized()
	ni := make([]int, 0, len(wi)+len(zi))
	nx := make([]T, 0, len(wi)+len(zi))
	w.setSparse(mergeRow(ni, nx, wi, wx, zi, zx, mv.mergeCursor(), inRegion, accum, replace))
}

// mergeCursor is the mask as mergeRow takes it: cursor, or nil for no mask.
func (m *maskVec) mergeCursor() func(int) bool {
	if m == nil {
		return nil
	}
	return m.cursor()
}

// mergeRow appends to (ni, nx) the row the write rule makes of a previous
// row (oi, ox) and a result row (zi, zx), both sorted ascending. At each
// position one of three holds:
//
//   - outside the region (inRegion nil: the region is the whole row) the
//     previous entry stays and z is not looked at;
//   - admitted by the mask (allowed nil: no mask, every position is), the
//     position takes z's entry — combined with the previous one through
//     accum when both exist — and where z has none the previous entry
//     survives only under an accumulator;
//   - not admitted, the previous entry stays unless replace is set.
//
// allowed is the mask's cursor (maskVec.cursor: queried in ascending
// order), asked about in-region positions only.
func mergeRow[T any](ni []int, nx []T, oi []int, ox []T, zi []int, zx []T, allowed, inRegion func(int) bool, accum BinaryOp[T, T, T], replace bool) ([]int, []T) {
	s, k := 0, 0
	plain := allowed == nil && inRegion == nil
	for s < len(oi) || k < len(zi) {
		if plain && (s == len(oi) || k == len(zi)) {
			break // the tail is taken whole below
		}
		// The rule at the next position, by which of the two rows hold it.
		switch {
		case k == len(zi) || (s < len(oi) && oi[s] < zi[k]):
			// Only the previous row: it stays outside the region, under an
			// accumulator where admitted, and short of Replace where not.
			j, keep := oi[s], true
			if inRegion == nil || inRegion(j) {
				if allowed == nil || allowed(j) {
					keep = accum != nil
				} else {
					keep = !replace
				}
			}
			if keep {
				ni = append(ni, j)
				nx = append(nx, ox[s])
			}
			s++
		case s == len(oi) || zi[k] < oi[s]:
			// Only z: taken where the region and the mask admit it.
			if j := zi[k]; (inRegion == nil || inRegion(j)) && (allowed == nil || allowed(j)) {
				ni = append(ni, j)
				nx = append(nx, zx[k])
			}
			k++
		default:
			// Both: z's entry, through the accumulator, where admitted; else
			// the previous one, as above.
			j, v, keep := oi[s], ox[s], true
			if inRegion == nil || inRegion(j) {
				if allowed != nil && !allowed(j) {
					keep = !replace
				} else if v = zx[k]; accum != nil {
					v = accum(ox[s], zx[k])
				}
			}
			if keep {
				ni = append(ni, j)
				nx = append(nx, v)
			}
			s++
			k++
		}
	}
	if plain {
		// With no mask and no region, once one row runs out the rest of the
		// other is one append: z's always, the previous row's under an
		// accumulator. At most one of the two is non-empty.
		ni, nx = append(ni, zi[k:]...), append(nx, zx[k:]...)
		if accum != nil {
			ni, nx = append(ni, oi[s:]...), append(nx, ox[s:]...)
		}
	}
	return ni, nx
}

// writeVectorLanes applies the write rule to w given the result as dense
// lanes z, which the call owns: they end up as w's dense form or back in
// the pool.
func writeVectorLanes[T, M any](w *Vector[T], mask *Vector[M], accum BinaryOp[T, T, T], z *bm[T], d descValues) error {
	_, err := writeVectorLanesRouted(w, mask, accum, z, false, d)
	return err
}

// writeVectorLanesRouted is writeVectorLanes reporting the route it took;
// admitted says z holds only what the mask admits.
func writeVectorLanesRouted[T, M any](w *Vector[T], mask *Vector[M], accum BinaryOp[T, T, T], z *bm[T], admitted bool, d descValues) (string, error) {
	if mask != nil && mask.n != w.n {
		z.release()
		return "", opErrorf("write", ErrDimensionMismatch, "mask is %d, w is %d", mask.n, w.n)
	}
	if w.ref().nvals == 0 || (accum == nil && (mask == nil || d.Replace)) {
		if mask != nil && !admitted {
			mv, done := laneMask(mask, d)
			for j, ok := range z.b {
				if ok && !mv.admitsLane(j) {
					z.del(j)
				}
			}
			done()
		}
		if w.adoptLanes(z) {
			return routeDense, nil
		}
		return routeAdopt, nil
	}
	if any(mask) != any(w) {
		if dn := w.writableDense(); dn != nil {
			mv, done := laneMask(mask, d)
			n := len(z.b)
			if mv == nil && accum != nil && z.nvals == n && dn.nvals == n {
				// Both full and no mask: a lane is one accumulation.
				dx := dn.x[:n]
				for j, x := range z.x[:n] {
					dx[j] = accum(dx[j], x)
				}
			} else {
				for j, ok := range z.b {
					switch {
					case !mv.admitsLane(j):
						if d.Replace {
							dn.del(j)
						}
					case ok:
						dn.put(j, z.x[j], accum)
					case accum == nil:
						dn.del(j)
					}
				}
			}
			done()
			z.release()
			w.sparseStale()
			w.maybeDemote()
			return routeInPlace, nil
		}
	}
	zidx, zx := compactLanes(z.b, z.x, z.nvals)
	z.release()
	return writeVectorRouted(w, mask, accum, zidx, zx, admitted, d)
}

// filterAdmittedCS compacts z in place to the entries mm admits, keeping
// its layout (and the hypersparse no-empty-vector invariant).
func filterAdmittedCS[T any](z *cs[T], mm *maskMat) *cs[T] {
	if mm == nil {
		return z
	}
	p := make([]int, 1, len(z.p))
	var h []int
	if z.h != nil {
		h = make([]int, 0, len(z.h))
	}
	w := 0
	for k := 0; k < z.nvecs(); k++ {
		row := z.majorOf(k)
		// A row the product left empty admits nothing: it needs no mask view.
		if zi, zx := z.vec(k); len(zi) > 0 {
			allowed := mm.rowMask(row).tester(len(zi))
			for t, j := range zi {
				if allowed(j) {
					z.i[w], z.x[w] = j, zx[t]
					w++
				}
			}
		}
		if z.h == nil {
			p = append(p, w)
		} else if w > p[len(p)-1] {
			p = append(p, w)
			h = append(h, row)
		}
	}
	return &cs[T]{nmajor: z.nmajor, nminor: z.nminor, p: p, h: h, i: z.i[:w], x: z.x[:w]}
}

// writeMatrixResult applies the write rule to matrix c given the computed
// result z in row-major compressed form.
func writeMatrixResult[T, M any](c *Matrix[T], mask *Matrix[M], accum BinaryOp[T, T, T], z *cs[T], d descValues) error {
	_, err := writeMatrixRouted(c, mask, accum, z, false, d)
	return err
}

// writeMatrixRouted is writeMatrixResult reporting the route it took;
// admitted says z holds only what the mask admits.
func writeMatrixRouted[T, M any](c *Matrix[T], mask *Matrix[M], accum BinaryOp[T, T, T], z *cs[T], admitted bool, d descValues) (string, error) {
	if z.nmajor != c.nr || z.nminor != c.nc {
		return "", opErrorf("write", ErrDimensionMismatch, "result is %d×%d, C is %d×%d", z.nmajor, z.nminor, c.nr, c.nc)
	}
	if mask != nil && (mask.nr != c.nr || mask.nc != c.nc) {
		return "", opErrorf("write", ErrDimensionMismatch, "mask is %d×%d, C is %d×%d", mask.nr, mask.nc, c.nr, c.nc)
	}
	if c.Nvals() == 0 || (accum == nil && (mask == nil || d.Replace)) {
		if !admitted {
			z = filterAdmittedCS(z, newMaskMat(mask, d))
		}
		c.setCSR(z)
		return routeAdopt, nil
	}
	mm := newMaskMat(mask, d)
	if inPlaceRoute(accum != nil, mm != nil, d.Comp, d.Replace) && any(mask) != any(c) {
		if dn := c.writableDense(); dn != nil {
			if accum != nil {
				for k := 0; k < z.nvecs(); k++ {
					row := z.majorOf(k)
					zi, zx := z.vec(k)
					scatterRow(dn, row*c.nc, zi, zx, mm.rowMask(row), accum)
				}
			} else {
				for _, row := range mm.majors() {
					zi, zx := rowView(z, row)
					scatterRow(dn, row*c.nc, zi, zx, mm.rowMask(row), nil)
				}
			}
			c.markCSRStale()
			c.maybeDemote()
			return routeInPlace, nil
		}
	}
	mergeMatrix(c, mm, accum, z, nil, nil, d.Replace)
	return routeMerge, nil
}

// mergeMatrix takes the merge route on c: its rows and z's, merged under mm
// and an optional rowIn × colIn region (nil: every row, every column).
func mergeMatrix[T any](c *Matrix[T], mm *maskMat, accum BinaryOp[T, T, T], z *cs[T], rowIn, colIn func(int) bool, replace bool) {
	c.setCSR(mergeRows(c.materializedCSR(), z, func(row int, ni []int, nx []T, oi []int, ox []T, zi []int, zx []T) ([]int, []T) {
		inRegion := colIn
		if rowIn != nil && !rowIn(row) {
			inRegion = func(int) bool { return false }
		}
		return mergeRow(ni, nx, oi, ox, zi, zx, mm.rowMask(row).mergeCursor(), inRegion, accum, replace)
	}))
}

// mergeRows walks the union of the stored rows of old and z — either may be
// hypersparse — in ascending row order, and has merge append each row's
// result to (ni, nx) given the row's entries in old and in z (nil where a
// side does not store the row); a row empty on both sides is closed empty
// without a call. The result is hypersparse when both inputs are, and then
// stores no empty row; otherwise it is standard, with the rows neither side
// stores closed empty.
func mergeRows[T any](old, z *cs[T], merge func(row int, ni []int, nx []T, oi []int, ox []T, zi []int, zx []T) ([]int, []T)) *cs[T] {
	est := old.nvals() + z.nvals()
	ni := make([]int, 0, est)
	nx := make([]T, 0, est)
	hyper := old.h != nil && z.h != nil
	var np, nh []int
	if hyper {
		np, nh = []int{0}, []int{}
	} else {
		np = make([]int, 1, old.nmajor+1)
	}
	ok, zk := 0, 0
	for ok < old.nvecs() || zk < z.nvecs() {
		var row int
		switch {
		case ok == old.nvecs():
			row = z.majorOf(zk)
		case zk == z.nvecs():
			row = old.majorOf(ok)
		default:
			row = min(old.majorOf(ok), z.majorOf(zk))
		}
		var oi, zi []int
		var ox, zx []T
		if ok < old.nvecs() && old.majorOf(ok) == row {
			oi, ox = old.vec(ok)
			ok++
		}
		if zk < z.nvecs() && z.majorOf(zk) == row {
			zi, zx = z.vec(zk)
			zk++
		}
		for !hyper && len(np)-1 < row {
			np = append(np, len(ni)) // the empty rows before this one
		}
		if len(oi) > 0 || len(zi) > 0 {
			ni, nx = merge(row, ni, nx, oi, ox, zi, zx)
		}
		if !hyper {
			np = append(np, len(ni))
		} else if len(ni) > np[len(np)-1] {
			nh = append(nh, row)
			np = append(np, len(ni))
		}
	}
	for !hyper && len(np)-1 < old.nmajor {
		np = append(np, len(ni))
	}
	return &cs[T]{nmajor: old.nmajor, nminor: old.nminor, p: np, h: nh, i: ni, x: nx}
}
