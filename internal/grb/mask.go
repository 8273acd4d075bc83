package grb

import "sort"

// maskVec is a type-erased view of a vector used as a write mask. The nil
// pointer admits every index. By default the mask is structural (a stored
// entry admits the index); bool-valued masks with value semantics also
// require the stored value to be true. Comp inverts the admission.
//
// A dense-held mask is probed on its dense lanes in O(1). Its sorted
// pattern is held as well unless the mask is complemented: a complement is
// only ever probed, never enumerated, so the `levels`/`paths` masks of a
// traversal — written in place every level — are never recompacted.
type maskVec struct {
	n    int
	idx  []int  // sorted stored indices; nil for a complemented dense-held mask
	val  []bool // parallel to idx; nil means every stored entry counts as true
	comp bool
	// db[i] reports a stored entry at i and dv[i] its truth value (nil dv:
	// every stored entry is true); both nil unless the mask is dense-held.
	db, dv []bool
	// nstored is the stored-entry count, -1 for a matrix row known only by
	// its dense lanes.
	nstored int
}

// newMaskVec builds a mask view over m, completing its pending work first.
// A nil m yields a nil view (no mask). When the descriptor requests value
// semantics and M is bool, stored values are honoured.
func newMaskVec[M any](m *Vector[M], d descValues) *maskVec {
	if m == nil {
		return nil
	}
	r := m.ref()
	mv := &maskVec{n: m.n, comp: d.Comp, nstored: r.nvals}
	if r.b != nil {
		mv.db = r.b
		if d.MaskValue {
			mv.dv, _ = any(r.dx).([]bool)
		}
		if d.Comp {
			return mv
		}
	}
	idx, xs := m.materialized()
	mv.idx = idx
	if d.MaskValue {
		mv.val, _ = any(xs).([]bool)
	}
	return mv
}

// allowed reports whether index i may be written: O(1) on dense lanes,
// O(log nvals) otherwise.
func (m *maskVec) allowed(i int) bool {
	if m == nil {
		return true
	}
	if m.db != nil {
		return m.admitsLane(i)
	}
	pos := sort.SearchInts(m.idx, i)
	in := pos < len(m.idx) && m.idx[pos] == i
	if in && m.val != nil {
		in = m.val[pos]
	}
	return in != m.comp
}

// admitsLane is allowed for a nil or lane-held mask, inlined in a pass.
func (m *maskVec) admitsLane(i int) bool {
	return m == nil || (m.db[i] && (m.dv == nil || m.dv[i])) != m.comp
}

// laneMask is m's view for a lane pass, probed by admitsLane: its own
// lanes, or a pooled scratch (done hands it back) its entries fill.
func laneMask[M any](m *Vector[M], d descValues) (mv *maskVec, done func()) {
	if done = nop; m == nil {
		return nil, done
	}
	r := m.ref()
	b, x, sc := r.lanes(m.n)
	mv = &maskVec{n: m.n, comp: d.Comp, db: b, nstored: r.nvals}
	if d.MaskValue {
		mv.dv, _ = any(x).([]bool)
	}
	if sc != nil {
		done = func() { r.unlanes(sc) }
	}
	return mv, done
}

// nop is a done with nothing to hand back: a func literal in a generic
// function carries its dictionary, so it would be allocated per call.
func nop() {}

// cursor returns an ascending-order admission tester with O(1) amortized
// cost; indices must be queried in non-decreasing order.
func (m *maskVec) cursor() func(i int) bool {
	if m == nil {
		return func(int) bool { return true }
	}
	if m.db != nil {
		return m.allowed
	}
	k := 0
	return func(i int) bool {
		for k < len(m.idx) && m.idx[k] < i {
			k++
		}
		in := k < len(m.idx) && m.idx[k] == i
		if in && m.val != nil {
			in = m.val[k]
		}
		return in != m.comp
	}
}

// tester returns an admission test for about k queries in ascending order:
// O(1) probes on dense lanes, otherwise whichever of a cursor walk
// (O(nvals) in total) and binary search (O(log nvals) per query) is
// cheaper — so filtering a small result through a large sparse mask costs
// what the result does.
func (m *maskVec) tester(k int) func(i int) bool {
	if m != nil && m.db == nil && searchBeatsWalk(k, len(m.idx)) {
		return m.allowed
	}
	return m.cursor()
}

// maskMat is a type-erased row-oriented view of a matrix used as a write
// mask. The nil pointer admits every position. Like maskVec it carries the
// dense lanes of a dense-held mask, and omits the compressed pattern when
// such a mask is complemented.
type maskMat struct {
	nr, nc int
	// row returns the admitted column pattern of row i: sorted column
	// indices plus optional truth values (nil = all true). The slices
	// alias internal storage and must not be modified.
	row func(i int) ([]int, []bool)
	// majors lists the stored row indices (ascending).
	majors func() []int
	comp   bool
	// db and dv are the nr·nc dense lanes (see maskVec), nil unless the
	// mask is dense-held; row and majors are nil when only they are held.
	db, dv []bool
}

// iterate visits every stored mask position with its admission value
// (before complementation).
func (m *maskMat) iterate(fn func(i, j int, admit bool)) {
	for _, i := range m.majors() {
		ci, cv := m.row(i)
		for t, j := range ci {
			admit := true
			if cv != nil {
				admit = cv[t]
			}
			fn(i, j, admit)
		}
	}
}

// newMaskMat builds a mask view over m (completing its pending work).
// Value semantics are honoured for bool matrices when requested by the
// descriptor.
func newMaskMat[M any](m *Matrix[M], d descValues) *maskMat {
	if m == nil {
		return nil
	}
	m.settle()
	mm := &maskMat{nr: m.nr, nc: m.nc, comp: d.Comp}
	if v := m.cachedBitmap(); v != nil {
		mm.db = v.b
		if d.MaskValue {
			mm.dv, _ = any(v.x).([]bool)
		}
		if d.Comp {
			return mm
		}
	}
	c := m.materializedCSR()
	var bx []bool
	if d.MaskValue {
		bx, _ = any(c.x).([]bool)
	}
	mm.row = func(i int) ([]int, []bool) {
		k, ok := c.findMajor(i)
		if !ok {
			return nil, nil
		}
		lo, hi := c.p[k], c.p[k+1]
		if bx != nil {
			return c.i[lo:hi], bx[lo:hi]
		}
		return c.i[lo:hi], nil
	}
	mm.majors = func() []int {
		out := make([]int, 0, c.nvecs())
		for k := 0; k < c.nvecs(); k++ {
			if c.p[k+1] > c.p[k] {
				out = append(out, c.majorOf(k))
			}
		}
		return out
	}
	return mm
}

// rowMask returns the admission view of one row of the matrix mask.
func (m *maskMat) rowMask(i int) *maskVec {
	if m == nil {
		return nil
	}
	mv := &maskVec{n: m.nc, comp: m.comp, nstored: -1}
	if m.db != nil {
		mv.db = m.db[i*m.nc : (i+1)*m.nc]
		if m.dv != nil {
			mv.dv = m.dv[i*m.nc : (i+1)*m.nc]
		}
	}
	if m.row != nil {
		mv.idx, mv.val = m.row(i)
		mv.nstored = len(mv.idx)
	}
	return mv
}

// visits is the number of column positions eachAdmitted steps through for
// row i, known without reading the row: the stored entries of a positive
// mask's row, every column otherwise. Each visit is at least one step of a
// kernel that enumerates its outputs, so this is the floor of what such a
// kernel costs on the row.
func (m *maskMat) visits(i, nc int) int {
	if m == nil || m.comp {
		return nc
	}
	mi, _ := m.row(i)
	return len(mi)
}

// eachAdmitted calls fn, in ascending order, with every column of row i the
// mask admits: a positive mask's true entries, the columns a complemented
// mask does not hold, every column under no mask.
func (m *maskMat) eachAdmitted(i, nc int, fn func(j int)) {
	switch {
	case m == nil:
		for j := 0; j < nc; j++ {
			fn(j)
		}
	case m.comp:
		allowed := m.rowMask(i).cursor()
		for j := 0; j < nc; j++ {
			if allowed(j) {
				fn(j)
			}
		}
	default:
		mi, mv := m.row(i)
		for t, j := range mi {
			if mv == nil || mv[t] {
				fn(j)
			}
		}
	}
}
