package grb

import "sort"

// Extract of Table I: C⟨M⟩ ⊙= A(I,J), w⟨m⟩ ⊙= u(I), and column
// extraction. A nil index slice plays the role of GrB_ALL.

// All is the nil index list standing for "all indices, in order".
var All []int = nil

// checkIndices reports the first index of idx outside [0, n). A nil list
// (All) has none.
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
//
// An injective J takes the permuting route (extractPermuted) while
// countingPays accepts the two index spaces it sweeps, A's width and C's
// height; a J with duplicates, or dimensions that dwarf the work, maps
// columns through a hash table and sorts each gathered row.
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

	if cols != nil && countingPays(len(cols)+ca.nvals(), ac, onr) {
		if inv := inverseIndex(cols, ac); inv != nil {
			return writeMatrixResult(c, mask, accum, extractPermuted(ca, rows, inv, onr, onc), d)
		}
	}

	// Map each source column to its (possibly several) output positions.
	var colTargets map[int][]int
	if cols != nil {
		colTargets = make(map[int][]int, len(cols))
		for t, j := range cols {
			colTargets[j] = append(colTargets[j], t)
		}
	}

	staging := newRowSlices[T](onr)
	srcRow := func(r int) int {
		if rows != nil {
			return rows[r]
		}
		return r
	}
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
	// Chunks carry equal entries, not equal rows: a degree-sorted operand
	// keeps every hub in its last rows.
	rowLen := func(r int) int {
		si, _ := rowView(ca, srcRow(r))
		return len(si) + 1
	}
	parallelWork(onr, mxmWorkQuantum, rowLen, nil, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			gatherRow(r, srcRow(r))
		}
	})
	z := staging.stitch(onr, onc, nil)
	return writeMatrixResult(c, mask, accum, z, d)
}

// inverseIndex returns inv with inv[cols[t]] = t and -1 elsewhere, or nil
// when cols repeats an index.
func inverseIndex(cols []int, n int) []int {
	inv := make([]int, n)
	for j := range inv {
		inv[j] = -1
	}
	for t, j := range cols {
		if inv[j] >= 0 {
			return nil
		}
		inv[j] = t
	}
	return inv
}

// extractPermuted computes Z(r, inv[j]) = A(rows[r], j) over the columns
// inv maps (inv[j] ≥ 0; inv is injective there) without sorting, by two
// bucket passes over the entries of a block of consecutive output rows:
// walking the block's rows in ascending order, each entry drops into the
// bucket of its output column, which leaves every column's entries in row
// order; walking those buckets in column order, each entry drops into its
// row, which leaves every row of Z in column order — whatever the
// permutation does to the row lengths. Blocks are independent and write
// disjoint ranges of Z, so they run concurrently.
func extractPermuted[T any](ca *cs[T], rows, inv []int, onr, onc int) *cs[T] {
	// With All rows only the stored vectors are walked.
	nsrc := onr
	if rows == nil {
		nsrc = ca.nvecs()
	}
	src := func(r int) (out int, si []int, sx []T) {
		if rows == nil {
			si, sx = ca.vec(r)
			return ca.majorOf(r), si, sx
		}
		si, sx = rowView(ca, rows[r])
		return r, si, sx
	}
	z := &cs[T]{nmajor: onr, nminor: onc, p: make([]int, onr+1)}
	kept := make([]int, nsrc) // entries of source slot r that inv keeps
	for r := 0; r < nsrc; r++ {
		out, si, _ := src(r)
		for _, j := range si {
			if inv[j] >= 0 {
				kept[r]++
			}
		}
		z.p[out+1] = kept[r]
	}
	for r := 0; r < onr; r++ {
		z.p[r+1] += z.p[r]
	}
	z.i = make([]int, z.p[onr])
	z.x = make([]T, z.p[onr])
	next := append([]int(nil), z.p[:onr]...)

	block := max(onc, extractBlockEntries)
	parallelWork(nsrc, block, func(r int) int { return kept[r] + 1 }, nil, func(lo, hi int) {
		colStart := make([]int, onc+1)
		var byColRow []int
		var byColVal []T
		for lo < hi {
			// The block: rows [lo, mid), about `block` entries.
			mid, entries := lo+1, kept[lo]
			for mid < hi && entries+kept[mid] <= block {
				entries += kept[mid]
				mid++
			}
			if cap(byColRow) < entries {
				byColRow, byColVal = make([]int, entries), make([]T, entries)
			}
			clear(colStart)
			for r := lo; r < mid; r++ {
				_, si, _ := src(r)
				for _, j := range si {
					if t := inv[j]; t >= 0 {
						colStart[t+1]++
					}
				}
			}
			for t := 0; t < onc; t++ {
				colStart[t+1] += colStart[t]
			}
			for r := lo; r < mid; r++ {
				out, si, sx := src(r)
				for u, j := range si {
					if t := inv[j]; t >= 0 {
						byColRow[colStart[t]], byColVal[colStart[t]] = out, sx[u]
						colStart[t]++
					}
				}
			}
			// colStart[t] is now the end of bucket t, the start of t+1.
			q := 0
			for t := 0; t < onc; t++ {
				for ; q < colStart[t]; q++ {
					r := byColRow[q]
					z.i[next[r]], z.x[next[r]] = t, byColVal[q]
					next[r]++
				}
			}
			lo = mid
		}
	})
	return z
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
	// in the order of the index list — a lane copy for All, an inline probe
	// per index when u has lanes, a search when it is sparse-held — with
	// no sort.
	if ru.denseEligible(u.n) && bitmapCells(1, on) >= 0 && laneMaskOpen(mask, d) {
		if idx == nil {
			return writeVectorLanes(w, mask, accum, ru.copyLanes(on), d)
		}
		z := getLanes[T](on)
		zb, zx := z.b[:len(idx)], z.x[:len(idx)]
		if ub := ru.b; ub != nil {
			ux := ru.dx[:len(ub)]
			for t, src := range idx {
				if ub[src] {
					zb[t], zx[t] = true, ux[src]
					z.nvals++
				}
			}
		} else {
			for t, src := range idx {
				if x, ok := ru.get(src); ok {
					zb[t], zx[t] = true, x
					z.nvals++
				}
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
