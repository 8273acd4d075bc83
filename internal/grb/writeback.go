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
//     Replace, nothing of the old C survives — C becomes Z filtered by the
//     mask, O(nnz(Z));
//   - in place: when C is (or by the promotion rule becomes) dense-held,
//     admitted Z entries are scattered into its dense lanes and, with no
//     accumulator, admitted positions Z left empty are cleared by a walk
//     over the positive mask's pattern — O(nnz(Z) + nnz(M)), independent
//     of nnz(C). The route is closed when deletions would need a sweep of
//     C itself: no accumulator under a complemented mask, or an
//     accumulator under a mask with Replace; and when the mask is C;
//   - merge: otherwise, the two-pointer merge of C and Z into fresh
//     compressed arrays, O(nnz(C) + nnz(Z)).
//
// Z is owned by the call: its arrays may be adopted by C.
//
// A vector op whose operands are dense-held — or by the promotion rule
// would be — computes Z as 1×n dense lanes drawn from the scratch pool
// instead of sorted arrays (the dense result route: one pass over the
// lanes, no index list, no append, no merge), and the rule has the
// matching arms for such a Z (writeVectorLanes):
//
//   - adopt, under the same condition: Z is filtered in place by the mask
//     and its lanes become w's dense form; the lanes w held go back to the
//     pool. A filtered Z below the promotion bar is compacted to the sorted
//     form first, so sparse traffic never stays in lanes;
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

// inPlaceRoute reports whether the in-place route is open. comp is the
// mask's complement flag, meaningless when masked is false.
func inPlaceRoute(hasAccum, masked, comp, replace bool) bool {
	if hasAccum {
		return !(masked && replace)
	}
	return masked && !comp && !replace
}

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
	_, err := writeVectorRouted(w, mask, accum, zidx, zx, d)
	return err
}

// writeVectorRouted is writeVectorResult reporting the route it took.
func writeVectorRouted[T, M any](w *Vector[T], mask *Vector[M], accum BinaryOp[T, T, T], zidx []int, zx []T, d descValues) (string, error) {
	if mask != nil && mask.n != w.n {
		return "", opErrorf("write", ErrDimensionMismatch, "mask is %d, w is %d", mask.n, w.n)
	}
	mv := newMaskVec(mask, d)
	if w.ref().nvals == 0 || (accum == nil && (mv == nil || d.Replace)) {
		w.setSparse(filterAdmitted(zidx, zx, mv))
		return routeAdopt, nil
	}
	if inPlaceRoute(accum != nil, mv != nil, d.Comp, d.Replace) && any(mask) != any(w) {
		if dn := w.writableDense(); dn != nil {
			scatterRow(dn, 0, zidx, zx, mv, accum)
			w.sparseStale()
			w.maybeDemote()
			return routeInPlace, nil
		}
	}
	widx, wx := w.materialized()
	allowed := mv.cursor()

	ni := make([]int, 0, len(zidx)+len(widx))
	nx := make([]T, 0, len(zidx)+len(widx))
	s, k := 0, 0 // cursors into w and z
	for s < len(widx) || k < len(zidx) {
		var i int
		haveW := s < len(widx)
		haveZ := k < len(zidx)
		switch {
		case haveW && (!haveZ || widx[s] < zidx[k]):
			i = widx[s]
			if allowed(i) {
				// admitted, z missing: deletion unless accumulating
				if accum != nil {
					ni = append(ni, i)
					nx = append(nx, wx[s])
				}
			} else if !d.Replace {
				ni = append(ni, i)
				nx = append(nx, wx[s])
			}
			s++
		case haveZ && (!haveW || zidx[k] < widx[s]):
			i = zidx[k]
			if allowed(i) {
				ni = append(ni, i)
				nx = append(nx, zx[k])
			}
			k++
		default: // both present at the same index
			i = widx[s]
			if allowed(i) {
				v := zx[k]
				if accum != nil {
					v = accum(wx[s], zx[k])
				}
				ni = append(ni, i)
				nx = append(nx, v)
			} else if !d.Replace {
				ni = append(ni, i)
				nx = append(nx, wx[s])
			}
			s++
			k++
		}
	}
	w.setSparse(ni, nx)
	return routeMerge, nil
}

// laneMaskOpen reports whether a write mask leaves the dense result route
// open: a positive mask holding fewer entries than the promotion bar bounds
// the output below it, and the mask-driven kernels are output-sensitive
// where a lane pass is not.
func laneMaskOpen[M any](mask *Vector[M], d descValues) bool {
	return mask == nil || d.Comp || mask.ref().denseEligible(mask.n)
}

// writeVectorLanes applies the write rule to w given the result as dense
// lanes z, which the call owns: they end up as w's dense form or back in
// the pool.
func writeVectorLanes[T, M any](w *Vector[T], mask *Vector[M], accum BinaryOp[T, T, T], z *bm[T], d descValues) error {
	_, err := writeVectorLanesRouted(w, mask, accum, z, d)
	return err
}

// writeVectorLanesRouted is writeVectorLanes reporting the route it took.
func writeVectorLanesRouted[T, M any](w *Vector[T], mask *Vector[M], accum BinaryOp[T, T, T], z *bm[T], d descValues) (string, error) {
	if mask != nil && mask.n != w.n {
		z.release()
		return "", opErrorf("write", ErrDimensionMismatch, "mask is %d, w is %d", mask.n, w.n)
	}
	mv := newMaskVec(mask, d)
	if w.ref().nvals == 0 || (accum == nil && (mv == nil || d.Replace)) {
		if mv != nil {
			allowed := mv.cursor()
			for j, ok := range z.b {
				if ok && !allowed(j) {
					z.del(j)
				}
			}
		}
		if w.adoptLanes(z) {
			return routeDense, nil
		}
		return routeAdopt, nil
	}
	if any(mask) != any(w) {
		if dn := w.writableDense(); dn != nil {
			allowed := mv.cursor()
			for j, ok := range z.b {
				switch {
				case !allowed(j):
					if d.Replace {
						dn.del(j)
					}
				case ok:
					dn.put(j, z.x[j], accum)
				case accum == nil:
					dn.del(j)
				}
			}
			z.release()
			w.sparseStale()
			w.maybeDemote()
			return routeInPlace, nil
		}
	}
	zidx, zx := compactLanes(z.b, z.x, z.nvals)
	z.release()
	return writeVectorRouted(w, mask, accum, zidx, zx, d)
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
		zi, zx := z.vec(k)
		allowed := mm.rowMask(row).tester(len(zi))
		for t, j := range zi {
			if allowed(j) {
				z.i[w], z.x[w] = j, zx[t]
				w++
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
	_, err := writeMatrixRouted(c, mask, accum, z, d)
	return err
}

// writeMatrixRouted is writeMatrixResult reporting the route it took.
func writeMatrixRouted[T, M any](c *Matrix[T], mask *Matrix[M], accum BinaryOp[T, T, T], z *cs[T], d descValues) (string, error) {
	if z.nmajor != c.nr || z.nminor != c.nc {
		return "", opErrorf("write", ErrDimensionMismatch, "result is %d×%d, C is %d×%d", z.nmajor, z.nminor, c.nr, c.nc)
	}
	if mask != nil && (mask.nr != c.nr || mask.nc != c.nc) {
		return "", opErrorf("write", ErrDimensionMismatch, "mask is %d×%d, C is %d×%d", mask.nr, mask.nc, c.nr, c.nc)
	}
	mm := newMaskMat(mask, d)
	if c.Nvals() == 0 || (accum == nil && (mm == nil || d.Replace)) {
		c.setCSR(filterAdmittedCS(z, mm))
		return routeAdopt, nil
	}
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
	old := c.materializedCSR()

	est := old.nvals() + z.nvals()
	ni := make([]int, 0, est)
	nx := make([]T, 0, est)
	var np, nh []int
	hyper := old.h != nil && z.h != nil
	if hyper {
		np = append(np, 0)
	} else {
		np = make([]int, 1, c.nr+1)
	}

	// Row iterators over possibly-hypersparse old and z.
	ok, zk := 0, 0
	emit := func(row int, oi []int, ox []T, zi []int, zx []T) {
		var rm *maskVec
		if mm != nil {
			rm = mm.rowMask(row)
		}
		allowed := rm.cursor()
		if mm == nil {
			allowed = func(int) bool { return true }
		}
		s, k := 0, 0
		for s < len(oi) || k < len(zi) {
			haveW := s < len(oi)
			haveZ := k < len(zi)
			switch {
			case haveW && (!haveZ || oi[s] < zi[k]):
				j := oi[s]
				if allowed(j) {
					if accum != nil {
						ni = append(ni, j)
						nx = append(nx, ox[s])
					}
				} else if !d.Replace {
					ni = append(ni, j)
					nx = append(nx, ox[s])
				}
				s++
			case haveZ && (!haveW || zi[k] < oi[s]):
				j := zi[k]
				if allowed(j) {
					ni = append(ni, j)
					nx = append(nx, zx[k])
				}
				k++
			default:
				j := oi[s]
				if allowed(j) {
					v := zx[k]
					if accum != nil {
						v = accum(ox[s], zx[k])
					}
					ni = append(ni, j)
					nx = append(nx, v)
				} else if !d.Replace {
					ni = append(ni, j)
					nx = append(nx, ox[s])
				}
				s++
				k++
			}
		}
	}

	closeRow := func(row int) {
		if hyper {
			if len(ni) > np[len(np)-1] {
				nh = append(nh, row)
				np = append(np, len(ni))
			}
		} else {
			np = append(np, len(ni))
		}
	}

	rowOf := func(cs *cs[T], k int) (int, bool) {
		if k >= cs.nvecs() {
			return 0, false
		}
		return cs.majorOf(k), true
	}

	for {
		ro, hasO := rowOf(old, ok)
		rz, hasZ := rowOf(z, zk)
		if !hasO && !hasZ {
			break
		}
		var row int
		switch {
		case !hasO:
			row = rz
		case !hasZ:
			row = ro
		default:
			row = min(ro, rz)
		}
		var oi, zi []int
		var ox, zx []T
		if hasO && ro == row {
			oi, ox = old.vec(ok)
			ok++
		}
		if hasZ && rz == row {
			zi, zx = z.vec(zk)
			zk++
		}
		if !hyper {
			// close empty rows up to 'row'
			for len(np)-1 < row {
				np = append(np, len(ni))
			}
		}
		emit(row, oi, ox, zi, zx)
		closeRow(row)
	}
	if !hyper {
		for len(np)-1 < c.nr {
			np = append(np, len(ni))
		}
	}

	c.setCSR(&cs[T]{nmajor: c.nr, nminor: c.nc, p: np, h: nh, i: ni, x: nx})
	return routeMerge, nil
}
