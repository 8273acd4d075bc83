package grb

import "lagraph/internal/obs"

// MxM: C⟨M⟩ ⊙= A ⊕.⊗ B, with the three kernel families of §II-A:
//
//   - Gustavson's method: row-wise saxpy with a dense accumulator; the
//     general-purpose kernel, and the push direction of a masked product —
//     it costs the products A's entries select, whatever the mask admits.
//   - The dot-product method: C(i,j) = A(i,:)·B(:,j); the pull direction —
//     it costs the columns of B the mask admits, whatever A selects, and
//     stops a dot early when the additive monoid has a terminal value.
//   - The heap method: a k-way merge of the B rows selected by each A row;
//     wins when rows of A are very short, and never allocates an
//     output-dimension-sized accumulator (so it serves every output wider
//     than a lane, a push's included).
//
// All three meet the products of one output in ascending inner index, so
// which of them runs changes what a product costs, never its bits.

// MxM computes C⟨M⟩ ⊙= A ⊕.⊗ B.
func MxM[A, B, T, M any](c *Matrix[T], mask *Matrix[M], accum BinaryOp[T, T, T], s Semiring[A, B, T], a *Matrix[A], b *Matrix[B], desc *Descriptor) error {
	if c == nil || a == nil || b == nil || s.Add.Op == nil || s.Mul == nil {
		return opError("mxm", ErrUninitialized)
	}
	d := desc.get()
	ar, ac := orientedDims(a, d.TranA)
	br, bc := orientedDims(b, d.TranB)
	if ac != br {
		return opErrorf("mxm", ErrDimensionMismatch, "A is %d×%d, B is %d×%d", ar, ac, br, bc)
	}
	if c.nr != ar || c.nc != bc {
		return opErrorf("mxm", ErrDimensionMismatch, "C is %d×%d, A·B is %d×%d", c.nr, c.nc, ar, bc)
	}
	if mask != nil && (mask.nr != c.nr || mask.nc != c.nc) {
		return opErrorf("mxm", ErrDimensionMismatch, "mask is %d×%d, C is %d×%d", mask.nr, mask.nc, c.nr, c.nc)
	}

	ca := orientedCSR(a, d.TranA)
	mm := newMaskMat(mask, d)

	method := d.Method
	policy := "forced"
	if method == MxMAuto {
		method, policy = chooseMxM(ca, b, d.TranB, mm, bc)
	}

	// Observation guard: one atomic load; st stays nil (and the kernels
	// record nothing) when no observer is installed.
	ob := obs.Active()
	var st *kernelStats
	var t0 int64
	if ob != nil {
		st = new(kernelStats)
		t0 = ob.Now()
	}

	var z *cs[T]
	var kernel string
	var nnzB int
	switch method {
	case MxMDot:
		cbT := orientedCSC(b, d.TranB)
		nnzB = cbT.nvals()
		z = mxmDot(ca, cbT, s, mm, ar, bc, st)
		kernel = "dot"
	case MxMHeap:
		cb := orientedCSR(b, d.TranB)
		nnzB = cb.nvals()
		z = mxmHeap(ca, cb, s, mm, ar, bc, st)
		kernel = "heap"
	default:
		cb := orientedCSR(b, d.TranB)
		nnzB = cb.nvals()
		z = mxmGustavson(ca, cb, s, mm, ar, bc, st)
		kernel = "gustavson"
	}
	nnzOut := z.nvals()
	// Every kernel emits only what mm admits.
	route, err := writeMatrixRouted(c, mask, accum, z, true, d)
	if ob != nil && err == nil {
		// The saxpy-family estimate pads each stored A row by one; the
		// exact multiply count is the estimate minus that padding. Dot
		// rows exit early on terminal monoids, so their actual work is
		// unknowable without per-iteration counting — reported as 0.
		var act int64
		if method != MxMDot {
			act = st.estFlops - int64(ca.nvecs())
		}
		ob.Op(obs.OpRecord{
			Op: "mxm", Kernel: kernel, Policy: policy, Ops: st.ops.String(),
			Rows: ar, Cols: bc,
			NnzA: ca.nvals(), NnzB: nnzB, NnzOut: nnzOut,
			Masked: mask != nil, Write: route,
			EstFlops: st.estFlops, ActFlops: act,
			Chunks: st.chunks, MaxChunkFlops: st.maxChunkFlops,
			DurNanos: ob.Now() - t0,
		})
	}
	return err
}

// MxMDirection reports the direction MxM takes for C⟨M⟩ ⊙= A ⊕.⊗ B under
// desc: DirPull when the dot method runs, DirPush when a saxpy kernel
// (Gustavson or heap) does. It asks the chooser MxM itself consults — a
// pure function of the operands and the descriptor — so an algorithm can
// put the direction of the step it is about to take in its iteration
// record. Operands MxM would reject yield DirAuto.
func MxMDirection[A, B, M any](mask *Matrix[M], a *Matrix[A], b *Matrix[B], desc *Descriptor) Direction {
	if a == nil || b == nil {
		return DirAuto
	}
	d := desc.get()
	ar, ac := orientedDims(a, d.TranA)
	br, bc := orientedDims(b, d.TranB)
	if ac != br || (mask != nil && (mask.nr != ar || mask.nc != bc)) {
		return DirAuto
	}
	method := d.Method
	if method == MxMAuto {
		method, _ = chooseMxM(orientedCSR(a, d.TranA), b, d.TranB, newMaskMat(mask, d), bc)
	}
	if method == MxMDot {
		return DirPull
	}
	return DirPush
}

// orientedDims returns the shape of the effective operand: a's, or aᵀ's
// when tran is set.
func orientedDims[T any](a *Matrix[T], tran bool) (nr, nc int) {
	if tran {
		return a.nc, a.nr
	}
	return a.nr, a.nc
}

// orientedCSC returns the column-major view of the effective operand: for
// a transposed operand that is simply its row-major storage.
func orientedCSC[T any](a *Matrix[T], tran bool) *cs[T] {
	if tran {
		return a.materializedCSR()
	}
	return a.materializedCSC()
}

// mxmGustavson computes Z = A·B row-wise with a dense accumulator, rows
// partitioned at equal-flop boundaries and dynamically scheduled so hub
// rows don't serialize the kernel.
//
// Under a positive mask a row goes mask-first: the mask row is scattered
// into a mark lane before the multiply, only admitted columns accumulate,
// and the row leaves in the mask's own (sorted) order — no store for a
// product the mask discards, no touched list, no sort. A row whose mask row
// is empty admits nothing and is skipped. The route is taken while the mask
// row is no longer than sorting the row's products could cost, |M(i,:)| ≤
// f·bitlen(f) with f the row's flop estimate — a pure function of the
// operands; past it (a near-dense mask over a short row) the row is
// accumulated whole, as it is with no mask or a complemented one: a mask
// row with dense lanes is probed at each touched cell before the sort, a
// compressed one walked after it, and the admitted cells leave in arrays of
// their exact size. Either way the same products meet in the same order,
// and the kernel emits only what the mask admits.
func mxmGustavson[A, B, T any](ca *cs[A], cb *cs[B], s Semiring[A, B, T], mm *maskMat, nr, nc int, st *kernelStats) *cs[T] {
	nvec := ca.nvecs()
	staging := newRowSlices[T](nvec)
	flops := func(k int) int { return saxpyFlops(ca, cb, k) }
	maskFirst := mm != nil && !mm.comp
	lp := loopsOf(&s, st)
	parallelWork(nvec, mxmWorkQuantum, flops, st, func(lo, hi int) {
		sc := getScratch[T](nc)
		defer putScratch(sc)
		var mark []uint8
		if maskFirst {
			mark = sc.marks(nc)
		}
		for k := lo; k < hi; k++ {
			ai, ax := ca.vec(k)
			if len(ai) == 0 {
				continue
			}
			row := ca.majorOf(k)
			if maskFirst {
				mi, mval := mm.row(row)
				if len(mi) == 0 {
					continue
				}
				if maskFirstPays(len(mi), flops(k)) {
					staging.idx[k], staging.val[k] = saxpyRowMasked(ai, ax, cb, lp, mi, mval, mark, sc.val)
					continue
				}
			}
			sc.touched = lp.scatter(ai, ax, 0, len(ai), cb, sc.seen, sc.val, sc.touched[:0])
			rm := mm.rowMask(row)
			sc.sortAdmitted(rm, sc.admitDense(rm))
			staging.idx[k], staging.val[k] = sc.handOver()
		}
	})
	return staging.stitch(nr, nc, ca.h)
}

// The states of a mark-lane cell during one mask-first row; the lane is
// all markClosed between rows.
const (
	markClosed = iota // not admitted by the mask row
	markOpen          // admitted, no product yet
	markFilled        // admitted and accumulating in val
)

// saxpyRowMasked computes one mask-first Gustavson row: (mi, mval) is the
// positive mask row (mval nil for a structural mask), mark a clean lane it
// leaves clean.
func saxpyRowMasked[A, B, T any](ai []int, ax []A, cb *cs[B], lp looper[A, B, T], mi []int, mval []bool, mark []uint8, val []T) ([]int, []T) {
	for t, j := range mi {
		if mval == nil || mval[t] {
			mark[j] = markOpen
		}
	}
	lp.marked(ai, ax, cb, mark, val)
	// What is left of the mask row bounds what is left of the output row:
	// one allocation at the first entry instead of a growth sequence, none
	// for a row that stays empty.
	var zi []int
	var zx []T
	for t, j := range mi {
		if mark[j] == markFilled {
			if zi == nil {
				zi, zx = make([]int, 0, len(mi)-t), make([]T, 0, len(mi)-t)
			}
			zi = append(zi, j)
			zx = append(zx, val[j])
		}
		mark[j] = markClosed
	}
	return zi, zx
}

// mxmDot computes Z = A·B with dot products over the positions the mask
// admits. cbT is the column-major view of B, i.e. rows of Bᵀ.
//
// A row of A that is long against B's columns (dotScatters) is scattered
// once into a pooled lane, at its first admitted dot, and each of its dots
// walks B's column probing the lane in O(1) — |B(:,j)| steps instead of a
// binary search of the row per entry of the column; the lane is cleared
// behind the row. Shorter rows merge (sparseDot). Either form meets the
// matches of a dot in ascending inner index, so they produce the same bits.
func mxmDot[A, B, T any](ca *cs[A], cbT *cs[B], s Semiring[A, B, T], mm *maskMat, nr, nc int, st *kernelStats) *cs[T] {
	nvec := ca.nvecs()
	staging := newRowSlices[T](nvec)
	flops := func(k int) int { return pullRowCost(ca, k, mm, nc, cbT) }
	nnzB, ncolsB, inner := cbT.nvals(), cbT.nvecs(), ca.nminor
	lp := loopsOf(&s, st)
	parallelWork(nvec, mxmWorkQuantum, flops, st, func(lo, hi int) {
		var lane *denseScratch[A] // drawn at the chunk's first scattered row
		for k := lo; k < hi; k++ {
			ai, ax := ca.vec(k)
			if len(ai) == 0 {
				continue
			}
			long := dotScatters(len(ai), nnzB, ncolsB, inner)
			scattered := false
			mm.eachAdmitted(ca.majorOf(k), nc, func(j int) {
				bk, ok := cbT.findMajor(j)
				if !ok {
					return
				}
				bi, bx := cbT.vec(bk)
				var acc T
				var any bool
				if long && len(bi) > 0 {
					if !scattered {
						if lane == nil {
							lane = getScratch[A](inner)
						}
						for t, i := range ai {
							lane.seen[i], lane.val[i] = true, ax[t]
						}
						scattered = true
					}
					acc, any = lp.dot(lane.seen, lane.val, cbT.i, cbT.x, cbT.p[bk], cbT.p[bk+1])
				} else {
					acc, any = sparseDot(ai, ax, bi, bx, s)
				}
				if any {
					staging.idx[k] = append(staging.idx[k], j)
					staging.val[k] = append(staging.val[k], acc)
				}
			})
			if scattered {
				for _, i := range ai {
					lane.seen[i] = false
				}
			}
		}
		if lane != nil {
			putScratch(lane)
		}
	})
	return staging.stitch(nr, nc, ca.h)
}

// sparseDot merges two sorted sparse vectors under the semiring, stopping
// early once the additive monoid reaches a terminal value (§II-A's early
// exit; the reason a "pull" BFS step is cheap).
func sparseDot[A, B, T any](ai []int, ax []A, bi []int, bx []B, s Semiring[A, B, T]) (T, bool) {
	var acc T
	found := false
	u, v := 0, 0
	for u < len(ai) && v < len(bi) {
		switch {
		case ai[u] < bi[v]:
			u++
		case bi[v] < ai[u]:
			v++
		default:
			p := s.Mul(ax[u], bx[v])
			if found {
				acc = s.Add.Op(acc, p)
			} else {
				acc = p
				found = true
			}
			if s.Add.Terminal != nil && s.Add.Terminal(acc) {
				return acc, true
			}
			u++
			v++
		}
	}
	return acc, found
}

// heapEntry is a cursor into one selected row of B during the k-way merge.
type heapEntry[B any] struct {
	col int // current column of this cursor
	pos int // position within the row
	bi  []int
	bx  []B
	src int // index into A's row (for the multiplier)
}

// before orders the merge by column, and cursors on one column by their
// place in A's row: an output's products meet in ascending inner index, the
// order Gustavson and the dots meet them in.
func (e heapEntry[B]) before(o heapEntry[B]) bool {
	return e.col < o.col || (e.col == o.col && e.src < o.src)
}

// mxmHeap computes Z = A·B one row at a time (heapRow). Memory per worker
// is O(row degree of A), never O(ncols) — the property that matters for
// hypersparse outputs.
func mxmHeap[A, B, T any](ca *cs[A], cb *cs[B], s Semiring[A, B, T], mm *maskMat, nr, nc int, st *kernelStats) *cs[T] {
	nvec := ca.nvecs()
	staging := newRowSlices[T](nvec)
	flops := func(k int) int { return saxpyFlops(ca, cb, k) }
	parallelWork(nvec, mxmWorkQuantum, flops, st, func(lo, hi int) {
		var heap []heapEntry[B]
		for k := lo; k < hi; k++ {
			ai, ax := ca.vec(k)
			if len(ai) == 0 {
				continue
			}
			var oi []int
			var ox []T
			oi, ox, heap = heapRow(ai, ax, cb, s, heap)
			if mm == nil {
				staging.idx[k], staging.val[k] = oi, ox
				continue
			}
			allowed := mm.rowMask(ca.majorOf(k)).cursor()
			for t, j := range oi {
				if allowed(j) {
					staging.idx[k] = append(staging.idx[k], j)
					staging.val[k] = append(staging.val[k], ox[t])
				}
			}
		}
	})
	return staging.stitch(nr, nc, ca.h)
}

// heapRow computes one output row, (ai, ax)·B, by merging the rows of B
// that ai selects with a binary heap keyed on column index: the row leaves
// in column order, and an output's products meet in ascending position of
// ai. heap is the caller's cursor buffer, returned for reuse.
func heapRow[L, R, T any](ai []int, ax []L, cb *cs[R], s Semiring[L, R, T], heap []heapEntry[R]) ([]int, []T, []heapEntry[R]) {
	heap = heap[:0]
	for t := range ai {
		bk, ok := cb.findMajor(ai[t])
		if !ok {
			continue
		}
		bi, bx := cb.vec(bk)
		if len(bi) == 0 {
			continue
		}
		heap = append(heap, heapEntry[R]{col: bi[0], pos: 0, bi: bi, bx: bx, src: t})
	}
	for t := len(heap)/2 - 1; t >= 0; t-- {
		siftDown(heap, t)
	}
	var oi []int
	var ox []T
	for len(heap) > 0 {
		top := heap[0]
		j := top.col
		p := s.Mul(ax[top.src], top.bx[top.pos])
		if len(oi) > 0 && oi[len(oi)-1] == j {
			ox[len(ox)-1] = s.Add.Op(ox[len(ox)-1], p)
		} else {
			oi = append(oi, j)
			ox = append(ox, p)
		}
		// advance cursor
		if top.pos+1 < len(top.bi) {
			heap[0].pos++
			heap[0].col = top.bi[top.pos+1]
			siftDown(heap, 0)
		} else {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
			if len(heap) > 0 {
				siftDown(heap, 0)
			}
		}
	}
	return oi, ox, heap
}

func siftDown[B any](h []heapEntry[B], i int) {
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && h[l].before(h[small]) {
			small = l
		}
		if r < len(h) && h[r].before(h[small]) {
			small = r
		}
		if small == i {
			return
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}

// Kronecker computes C⟨M⟩ ⊙= A ⊗kron B (the GrB_kronecker of the v1.3
// API): C(ia·nbr+ib, ja·nbc+jb) = mul(A(ia,ja), B(ib,jb)).
func Kronecker[A, B, T, M any](c *Matrix[T], mask *Matrix[M], accum BinaryOp[T, T, T], mul BinaryOp[A, B, T], a *Matrix[A], b *Matrix[B], desc *Descriptor) error {
	if c == nil || a == nil || b == nil || mul == nil {
		return opError("kronecker", ErrUninitialized)
	}
	d := desc.get()
	ca := orientedCSR(a, d.TranA)
	cb := orientedCSR(b, d.TranB)
	nbr, nbc := cb.nmajor, cb.nminor
	nr, nc := ca.nmajor*nbr, ca.nminor*nbc
	if c.nr != nr || c.nc != nc {
		return opErrorf("kronecker", ErrDimensionMismatch, "C is %d×%d, want %d×%d", c.nr, c.nc, nr, nc)
	}
	return writeMatrixResult(c, mask, accum, kroneckerCS(ca, cb, mul, nr, nc), d)
}

// kroneckerCS emits A ⊗ B directly in compressed form: output row
// ia·nbr+ib is, walking A's row ia in column order, B's row ib shifted by
// ja·nbc — each segment sorted and the segments disjoint and ascending, so
// the row needs no staging, sorting or duplicate pass (the old path
// materialized three O(nvals(A)·nvals(B)) COO slices and re-sorted them
// through assembleCS). Output rows are filled concurrently at exact
// offsets known from a prefix sum over the per-row sizes.
func kroneckerCS[A, B, T any](ca *cs[A], cb *cs[B], mul BinaryOp[A, B, T], nr, nc int) *cs[T] {
	nva, nvb := ca.nvecs(), cb.nvecs()
	nbr, nbc := cb.nmajor, cb.nminor
	nrows := nva * nvb
	p := make([]int, nrows+1)
	h := make([]int, nrows)
	for ka := 0; ka < nva; ka++ {
		la := ca.p[ka+1] - ca.p[ka]
		base := ca.majorOf(ka) * nbr
		for kb := 0; kb < nvb; kb++ {
			r := ka*nvb + kb
			p[r+1] = p[r] + la*(cb.p[kb+1]-cb.p[kb])
			h[r] = base + cb.majorOf(kb)
		}
	}
	zi := make([]int, p[nrows])
	zx := make([]T, p[nrows])
	parallelWork(nrows, mxmWorkQuantum, func(r int) int { return p[r+1] - p[r] + 1 }, nil, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			ai, ax := ca.vec(r / nvb)
			bi, bx := cb.vec(r % nvb)
			w := p[r]
			for ta := range ai {
				col := ai[ta] * nbc
				av := ax[ta]
				for tb := range bi {
					zi[w] = col + bi[tb]
					zx[w] = mul(av, bx[tb])
					w++
				}
			}
		}
	})
	// Compress away stored-but-empty rows (empty input rows in standard
	// format produce them) to keep the hypersparse invariant.
	cp := make([]int, 1, nrows+1)
	ch := make([]int, 0, nrows)
	for r := 0; r < nrows; r++ {
		if p[r+1] > p[r] {
			cp = append(cp, p[r+1])
			ch = append(ch, h[r])
		}
	}
	return &cs[T]{nmajor: nr, nminor: nc, p: cp, h: ch, i: zi, x: zx}
}
