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
	ui, ux := u.materialized()

	// Fast path: small dense updates buffer as pending tuples instead of
	// rewriting w. (The deletion semantics of sparse u — region positions
	// with no u entry lose their value — need the general path.)
	if mask == nil && idx != nil && len(idx) <= pendingFastPathMax && !d.Replace && len(ui) == un {
		for t, target := range idx {
			if accum != nil {
				w.accumElement(target, ux[t], accum)
			} else {
				_ = w.SetElement(target, ux[t])
			}
		}
		return nil
	}

	// General path: expand u into w-shaped z over the region, then apply
	// the write rule restricted to the region.
	type ent struct {
		i int
		x T
	}
	tmp := make([]ent, 0, len(idx))
	region := make(map[int]struct{}, un)
	ud, uok := u.dense()
	for t, target := range idx {
		region[target] = struct{}{}
		if uok[t] {
			tmp = append(tmp, ent{target, ud[t]})
		}
	}
	sort.Slice(tmp, func(a, b int) bool { return tmp[a].i < tmp[b].i })
	zi := make([]int, len(tmp))
	zx := make([]T, len(tmp))
	for k, e := range tmp {
		zi[k], zx[k] = e.i, e.x
	}
	inRegion := func(i int) bool {
		_, ok := region[i]
		return ok
	}
	return writeVectorRegion(w, mask, accum, zi, zx, inRegion, d)
}

// pendingFastPathMax bounds the assign sizes routed through pending
// tuples.
const pendingFastPathMax = 256

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
	case idx == nil && mv == nil:
		zi = make([]int, w.n)
		for i := range zi {
			zi[i] = i
		}
	case idx == nil && !mv.comp && mv.val == nil:
		zi = mv.idx // read only below: neither route keeps or edits zi
	case idx == nil:
		for i := 0; i < w.n; i++ {
			if mv.allowed(i) {
				zi = append(zi, i)
			}
		}
	default:
		zi = append(zi, idx...)
		zi = sortDedupIndices(zi)
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
	// The scalar fills every admitted region position, so within the
	// masked region there are no deletions; outside the region nothing
	// changes — unless Replace sweeps the unadmitted rest of a whole-vector
	// region. Without that sweep a dense-held w takes the scalar in place,
	// O(admitted positions); otherwise the merge is direct.
	w.settle()
	if !(d.Replace && idx == nil && mv != nil) && any(mask) != any(w) {
		if dn := w.writableDense(); dn != nil {
			for _, i := range zi {
				dn.put(i, s, accum)
			}
			w.sparseStale()
			return nil
		}
	}
	zx := make([]T, len(zi))
	for k := range zx {
		zx[k] = s
	}
	widx, wx := w.materialized()
	ni := make([]int, 0, len(widx)+len(zi))
	nx := make([]T, 0, len(widx)+len(zi))
	sc, k := 0, 0
	for sc < len(widx) || k < len(zi) {
		switch {
		case k >= len(zi) || (sc < len(widx) && widx[sc] < zi[k]):
			// Untouched existing entry; Replace deletes entries outside
			// the admitted set only if they fall inside the region.
			drop := false
			if d.Replace {
				if idx == nil {
					drop = mv != nil && !mv.allowed(widx[sc])
				} else {
					// in-region check via sorted zi is insufficient
					// (entry may be region-but-not-admitted); accept the
					// conservative interpretation: only admitted
					// positions are rewritten.
					drop = false
				}
			}
			if !drop {
				ni = append(ni, widx[sc])
				nx = append(nx, wx[sc])
			}
			sc++
		case sc >= len(widx) || zi[k] < widx[sc]:
			ni = append(ni, zi[k])
			nx = append(nx, zx[k])
			k++
		default:
			v := zx[k]
			if accum != nil {
				v = accum(wx[sc], zx[k])
			}
			ni = append(ni, widx[sc])
			nx = append(nx, v)
			sc++
			k++
		}
	}
	w.setSparse(ni, nx)
	return nil
}

// writeVectorRegion applies the write rule restricted to a region:
// positions outside the region always keep their previous value.
func writeVectorRegion[T, M any](w *Vector[T], mask *Vector[M], accum BinaryOp[T, T, T], zidx []int, zx []T, inRegion func(int) bool, d descValues) error {
	if mask != nil && mask.n != w.n {
		return opErrorf("assign", ErrDimensionMismatch, "mask is %d, w is %d", mask.n, w.n)
	}
	mv := newMaskVec(mask, d)
	widx, wx := w.materialized()
	allowed := mv.cursor()

	ni := make([]int, 0, len(zidx)+len(widx))
	nx := make([]T, 0, len(zidx)+len(widx))
	s, k := 0, 0
	for s < len(widx) || k < len(zidx) {
		haveW := s < len(widx)
		haveZ := k < len(zidx)
		switch {
		case haveW && (!haveZ || widx[s] < zidx[k]):
			i := widx[s]
			keep := true
			if inRegion(i) && allowed(i) {
				keep = accum != nil // admitted, z missing: delete unless accumulating
			} else if inRegion(i) && d.Replace {
				keep = false
			}
			if keep {
				ni = append(ni, i)
				nx = append(nx, wx[s])
			}
			s++
		case haveZ && (!haveW || zidx[k] < widx[s]):
			i := zidx[k]
			if allowed(i) {
				ni = append(ni, i)
				nx = append(nx, zx[k])
			}
			k++
		default:
			i := widx[s]
			if allowed(i) {
				v := zx[k]
				if accum != nil {
					v = accum(wx[s], zx[k])
				}
				ni = append(ni, i)
				nx = append(nx, v)
			} else if !d.Replace || !inRegion(i) {
				ni = append(ni, i)
				nx = append(nx, wx[s])
			}
			s++
			k++
		}
	}
	w.setSparse(ni, nx)
	return nil
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

	rowRegion := regionSet(rows, c.nr)
	colRegion := regionSet(cols, c.nc)
	return writeMatrixRegion(c, mask, accum, z, rowRegion, colRegion, d)
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

	rset := rows
	if rset == nil {
		rset = make([]int, c.nr)
		for i := range rset {
			rset[i] = i
		}
	} else {
		rset = sortDedupIndices(append([]int(nil), rset...))
	}
	cset := cols
	if cset == nil {
		cset = make([]int, c.nc)
		for j := range cset {
			cset[j] = j
		}
	} else {
		cset = sortDedupIndices(append([]int(nil), cset...))
	}

	is := make([]int, 0, len(rset)*len(cset))
	js := make([]int, 0, len(rset)*len(cset))
	xs := make([]T, 0, len(rset)*len(cset))
	for _, i := range rset {
		var rm *maskVec
		if mm != nil {
			rm = mm.rowMask(i)
		}
		for _, j := range cset {
			if rm == nil || rm.allowed(j) {
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
	// region position; the mask has already been applied to z.
	return writeMatrixRegion[T, bool](c, nil, accum, z, regionSet(rows, c.nr), regionSet(cols, c.nc), d)
}

// regionSet returns a membership test for an index list (nil = everything).
func regionSet(idx []int, n int) func(int) bool {
	if idx == nil {
		return func(int) bool { return true }
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

// writeMatrixRegion is writeMatrixResult restricted to a row×column
// region: positions outside it always keep their previous value.
func writeMatrixRegion[T, M any](c *Matrix[T], mask *Matrix[M], accum BinaryOp[T, T, T], z *cs[T], rowIn, colIn func(int) bool, d descValues) error {
	if mask != nil && (mask.nr != c.nr || mask.nc != c.nc) {
		return opErrorf("assign", ErrDimensionMismatch, "mask is %d×%d, C is %d×%d", mask.nr, mask.nc, c.nr, c.nc)
	}
	mm := newMaskMat(mask, d)
	old := c.materializedCSR()

	ni := make([]int, 0, old.nvals()+z.nvals())
	nx := make([]T, 0, old.nvals()+z.nvals())
	np := make([]int, 1, c.nr+2)
	var nh []int
	hyper := old.h != nil && z.h != nil
	if hyper {
		np = np[:1]
	}

	emit := func(row int, oi []int, ox []T, zi []int, zx []T) {
		inRow := rowIn(row)
		var allowed func(int) bool
		if mm == nil {
			allowed = func(int) bool { return true }
		} else {
			allowed = mm.rowMask(row).cursor()
		}
		s, k := 0, 0
		for s < len(oi) || k < len(zi) {
			haveW := s < len(oi)
			haveZ := k < len(zi)
			switch {
			case haveW && (!haveZ || oi[s] < zi[k]):
				j := oi[s]
				keep := true
				if inRow && colIn(j) {
					if allowed(j) {
						keep = accum != nil
					} else if d.Replace {
						keep = false
					}
				}
				if keep {
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
				} else if !d.Replace || !(inRow && colIn(j)) {
					ni = append(ni, j)
					nx = append(nx, ox[s])
				}
				s++
				k++
			}
		}
	}

	ok, zk := 0, 0
	for ok < old.nvecs() || zk < z.nvecs() {
		var row int
		switch {
		case ok >= old.nvecs():
			row = z.majorOf(zk)
		case zk >= z.nvecs():
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
		if !hyper {
			for len(np)-1 < row {
				np = append(np, len(ni))
			}
		}
		before := len(ni)
		emit(row, oi, ox, zi, zx)
		if hyper {
			if len(ni) > before {
				nh = append(nh, row)
				np = append(np, len(ni))
			}
		} else {
			np = append(np, len(ni))
		}
	}
	if !hyper {
		for len(np)-1 < c.nr {
			np = append(np, len(ni))
		}
	}
	c.setCSR(&cs[T]{nmajor: c.nr, nminor: c.nc, p: np, h: nh, i: ni, x: nx})
	return nil
}
