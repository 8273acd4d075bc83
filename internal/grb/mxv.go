package grb

import (
	"sort"
	"sync/atomic"

	"lagraph/internal/obs"
)

// MxV / VxM with the push–pull direction optimization of §II-E
// (GraphBLAST): the push form is a sparse-matrix sparse-vector product
// (work ∝ entries of the input vector and their adjacency), the pull form
// a dot-product sweep over the output (work ∝ output dimension, with early
// exit on terminal monoids). DirAuto switches on input-vector density,
// reproducing the frontier-based switching of direction-optimizing BFS.

// VxM computes w⟨m⟩ ⊙= uᵀ ⊕.⊗ A (row vector times matrix).
func VxM[A, U, T, M any](w *Vector[T], mask *Vector[M], accum BinaryOp[T, T, T], s Semiring[U, A, T], u *Vector[U], a *Matrix[A], desc *Descriptor) error {
	if w == nil || u == nil || a == nil || s.Add.Op == nil || s.Mul == nil {
		return opError("vxm", ErrUninitialized)
	}
	return vxmImpl("vxm", w, mask, accum, s, u, a, desc.get())
}

// MxV computes w⟨m⟩ ⊙= A ⊕.⊗ u. It is VxM against the transposed
// operand, with the multiplier's argument order swapped — both run
// through vxmImpl so the shared core reports the caller's own op name in
// errors and op records instead of pretending everything is a vxm.
func MxV[A, U, T, M any](w *Vector[T], mask *Vector[M], accum BinaryOp[T, T, T], s Semiring[A, U, T], a *Matrix[A], u *Vector[U], desc *Descriptor) error {
	if w == nil || u == nil || a == nil || s.Add.Op == nil || s.Mul == nil {
		return opError("mxv", ErrUninitialized)
	}
	swapped := Semiring[U, A, T]{
		Add: s.Add,
		Mul: func(x U, y A) T { return s.Mul(y, x) },
		ops: s.ops.swapped(),
	}
	d := desc.get()
	d.TranA = !d.TranA
	return vxmImpl("mxv", w, mask, accum, swapped, u, a, d)
}

// vxmImpl is the direction-optimized sparse matrix–vector core behind
// VxM and MxV. op names the public entry point for error wrapping and
// observation; d carries resolved descriptor values (MxV arrives with
// TranA already flipped).
func vxmImpl[A, U, T, M any](op string, w *Vector[T], mask *Vector[M], accum BinaryOp[T, T, T], s Semiring[U, A, T], u *Vector[U], a *Matrix[A], d descValues) error {
	ar, ac := orientedDims(a, d.TranA)
	if u.n != ar || w.n != ac {
		return opErrorf(op, ErrDimensionMismatch, "u is %d, A is %d×%d, w is %d", u.n, ar, ac, w.n)
	}
	if mask != nil && mask.n != w.n {
		return opErrorf(op, ErrDimensionMismatch, "mask is %d, w is %d", mask.n, w.n)
	}
	// A complemented mask is probed on lanes, whatever its form: a
	// compressed one fills laneMask's pooled scratch in O(nnz(mask)), so
	// neither direction enumerates or searches the outputs it rejects.
	var mv *maskVec
	done := nop
	if mask != nil && d.Comp && bitmapCells(1, mask.n) >= 0 {
		mv, done = laneMask(mask, d)
	} else {
		mv = newMaskVec(mask, d)
	}

	// Kernel selection. A forced direction is honored verbatim; DirAuto
	// engages the GraphBLAST push/pull density switch, a pure function of
	// the operands. Both kernels accumulate each output in ascending
	// input-index order, so the choice can never change results — only
	// speed.
	dir, policy := d.Dir, "forced"
	if dir == DirAuto {
		dir, policy = chooseDirection(u, mv, ac), "static"
	}
	kernel := "push"
	if dir == DirPull {
		kernel = "pull"
	}

	// Observation guard: one atomic load; st stays nil (and the kernels
	// record nothing) when no observer is installed.
	ob := obs.Active()
	var st *kernelStats
	var t0 int64
	var nnzU int
	if ob != nil {
		st = new(kernelStats)
		t0 = ob.Now()
		nnzU = u.Nvals()
	}

	var zi []int
	var zx []T
	var zd *bm[T] // the result as dense lanes, when the kernel built it so
	var nnzA int
	admitted := true // the pull only ever computes admitted outputs
	switch kernel {
	case "pull":
		// Pull: dot products over output positions; needs the effective
		// matrix in column-major order (columns of A = rows of Aᵀ).
		caT := orientedCSC(a, d.TranA)
		nnzA = caT.nvals()
		zi, zx, zd = vxmPull(u, caT, s, mv, ac, st)
	default:
		ca := orientedCSR(a, d.TranA)
		nnzA = ca.nvals()
		zi, zx, zd, admitted = vxmPush(u, ca, s, mv, ac, st)
	}
	done() // w may be the mask: its lanes go back before the write
	nnzOut := len(zi)
	var route string
	var err error
	if zd != nil {
		nnzOut = zd.nvals
		route, err = writeVectorLanesRouted(w, mask, accum, zd, admitted, d)
	} else {
		route, err = writeVectorRouted(w, mask, accum, zi, zx, admitted, d)
	}
	if ob != nil && err == nil {
		// Push work estimates pad each frontier entry by one, so the
		// exact multiply count is recoverable; pull rows exit early on
		// terminal monoids, so their actual work is reported as 0
		// (unknown) rather than paid for with per-iteration counting.
		var act int64
		if kernel == "push" {
			act = st.estFlops - int64(nnzU)
		}
		ops := st.ops
		if op == "mxv" {
			ops = ops.swapped() // back to the caller's spelling
		}
		ob.Op(obs.OpRecord{
			Op: op, Kernel: kernel, Policy: policy, Ops: ops.String(),
			Rows: ar, Cols: ac,
			NnzA: nnzA, NnzB: nnzU, NnzOut: nnzOut,
			Masked: mask != nil, Write: route,
			EstFlops: st.estFlops, ActFlops: act,
			Chunks: st.chunks, MaxChunkFlops: st.maxChunkFlops,
			DurNanos: ob.Now() - t0,
		})
	}
	return err
}

// VxMDirection reports the direction VxM takes for w⟨m⟩ ⊙= uᵀ ⊕.⊗ A under
// desc: the one desc forces, or the one the DirAuto switch picks. It asks
// the chooser VxM itself consults — a pure function of the operands and the
// descriptor — so an algorithm can put the direction of the step it is
// about to take in its iteration record. Operands VxM would reject yield
// DirAuto.
func VxMDirection[U, A, M any](mask *Vector[M], u *Vector[U], a *Matrix[A], desc *Descriptor) Direction {
	if u == nil || a == nil {
		return DirAuto
	}
	d := desc.get()
	ar, ac := orientedDims(a, d.TranA)
	if u.n != ar || (mask != nil && mask.n != ac) {
		return DirAuto
	}
	if d.Dir != DirAuto {
		return d.Dir
	}
	return chooseDirection(u, newMaskVec(mask, d), ac)
}

// vxmPush computes z = uᵀ·A by scattering each selected row of A
// (Gustavson over a single "row": SpMSpV) into a pooled dense accumulator
// (pushDense) whenever an outDim-wide lane is within bitmapCells, the cap
// of every dense form. The accumulator is unordered while it is built, so
// the kernel costs its products, and order is established once, at the
// end, by whatever the result's size makes cheapest. admitted reports that
// z holds only what mv admits.
//
//   - A dense-held mask is probed at each touched cell of the accumulator
//     in O(1) before anything else, so the bar check, the sort and the
//     write rule see admitted cells only.
//   - An accumulator whose cells reach the promotion bar of outDim *is* the
//     result's lanes: it is returned as zd for the write rule's dense arms
//     — no index list, no sort, no copy. Under a compressed mask it is not
//     admitted: the write rule applies the mask in the sweep it makes.
//   - Below the bar the touched list is sorted, walked against a compressed
//     mask, and emitted as (zi, zx).
//
// Past the cap u is one row of the heap merge (heapRow): memory O(nnz(u)),
// never O(outDim), output in column order, each output's products met in
// ascending input index — the association of one chunk, the pull's.
func vxmPush[A, U, T any](u *Vector[U], ca *cs[A], s Semiring[U, A, T], mv *maskVec, outDim int, st *kernelStats) (zi []int, zx []T, zd *bm[T], admitted bool) {
	ui, ux := u.ref().entries()
	deg := func(t int) int {
		rk, ok := ca.findMajor(ui[t])
		if !ok {
			return 1
		}
		return ca.p[rk+1] - ca.p[rk] + 1
	}
	if bitmapCells(1, outDim) < 0 {
		st.fill([]int{0, len(ui)}, deg)
		zi, zx, _ = heapRow(ui, ux, ca, s, nil)
		zi, zx = filterAdmitted(zi, zx, mv)
		return zi, zx, nil, true
	}
	bounds := workChunks(len(ui), deg, pushWorkQuantum, pushMaxChunks)
	st.fill(bounds, deg) // read-only: never perturbs the bounds
	acc := pushDense(ui, ux, ca, s, outDim, bounds, st)
	admitted = acc.admitDense(mv)
	if denseWanted(bitmapCells(1, outDim), len(acc.touched)) {
		return nil, nil, &bm[T]{nr: 1, nc: outDim, b: acc.seen, x: acc.val, nvals: len(acc.touched)}, admitted
	}
	acc.sortAdmitted(mv, admitted)
	zi, zx = acc.handOver()
	putScratch(acc)
	return zi, zx, nil, true
}

// pushDense scatters the frontier into a pooled dense accumulator the
// caller owns: seen/val hold the result, touched lists its cells in no
// particular order. A chunked frontier is scattered concurrently, each
// chunk into a pooled accumulator of its own that it hands over as its
// touched cells, unsorted; the partials are then folded into the result
// strictly in chunk order — chunk 0's contribution to a cell first — which
// is the association that makes chunked push deterministic.
func pushDense[A, U, T any](ui []int, ux []U, ca *cs[A], s Semiring[U, A, T], outDim int, bounds []int, st *kernelStats) *denseScratch[T] {
	acc := getScratch[T](outDim)
	lp := loopsOf(&s, st)
	nchunks := len(bounds) - 1
	if nchunks <= 1 {
		acc.touched = lp.scatter(ui, ux, 0, len(ui), ca, acc.seen, acc.val, acc.touched[:0])
		return acc
	}
	type part struct {
		i []int
		x []T
	}
	parts := make([]part, nchunks)
	runChunks(bounds, func(c, lo, hi int) {
		// The pool hands a worker back the accumulator it just returned.
		sc := getScratch[T](outDim)
		sc.touched = lp.scatter(ui, ux, lo, hi, ca, sc.seen, sc.val, sc.touched[:0])
		parts[c].i, parts[c].x = sc.handOver()
		putScratch(sc)
	})
	acc.touched = acc.touched[:0]
	for _, p := range parts {
		acc.touched = lp.fold(p.i, p.x, acc.seen, acc.val, acc.touched)
	}
	return acc
}

// admitDense drops from the touched list the cells a dense-held mask
// rejects, clearing them as it goes: one O(1) probe a cell, before the list
// is counted or sorted. It reports whether the list is now admitted — with
// no mask, trivially; with a compressed one, not yet (sortAdmitted walks it).
func (sc *denseScratch[T]) admitDense(mv *maskVec) bool {
	if mv == nil {
		return true
	}
	if mv.db == nil {
		return false
	}
	sc.keep(mv.allowed)
	return true
}

// sortAdmitted sorts the touched list and, unless it is admitted already,
// drops the cells a compressed mask rejects — a walk that wants the order.
func (sc *denseScratch[T]) sortAdmitted(mv *maskVec, admitted bool) {
	sort.Ints(sc.touched)
	if !admitted {
		sc.keep(mv.tester(len(sc.touched)))
	}
}

// keep compacts the touched list to the cells allowed admits, in order,
// clearing the others.
func (sc *denseScratch[T]) keep(allowed func(int) bool) {
	w := 0
	for _, j := range sc.touched {
		if allowed(j) {
			sc.touched[w] = j
			w++
		} else {
			sc.seen[j] = false
		}
	}
	sc.touched = sc.touched[:w]
}

// handOver returns the accumulator's touched cells, in touched order, as
// fresh exact-size arrays, clearing the accumulator behind itself.
func (sc *denseScratch[T]) handOver() ([]int, []T) {
	zi := make([]int, len(sc.touched))
	zx := make([]T, len(sc.touched))
	for t, j := range sc.touched {
		zi[t], zx[t] = j, sc.val[j]
		sc.seen[j] = false
	}
	sc.touched = sc.touched[:0]
	return zi, zx
}

// vxmPull computes z(j) = u·A(:,j) for each admitted output j, with early
// exit on terminal monoids. caT is the column-major view of the effective
// matrix, so caT's major vectors are the columns of A. Outputs are staged
// per column, so results are independent of the partitioning; columns are
// partitioned at equal-degree boundaries (hub columns of a power-law graph
// otherwise serialize the sweep).
//
// With no mask, or a complemented one on lanes, every column is a candidate
// and the staging area is indexed by column: it *is* the result's dense
// lanes, returned as zd for the write rule's dense arms instead of being
// compacted. Otherwise the columns a positive mask admits are staged, and
// under a complemented mask (past the dense cap, or over a hypersparse
// matrix) every stored column it admits; either is compacted into (zi, zx).
func vxmPull[A, U, T any](u *Vector[U], caT *cs[A], s Semiring[U, A, T], mv *maskVec, outDim int, st *kernelStats) (zi []int, zx []T, zd *bm[T]) {
	// u is probed once per matrix entry: straight off its dense lanes when
	// it has them, otherwise off a pooled scratch it is scattered into.
	ur := u.ref()
	uok, ud, usc := ur.lanes(u.n)
	defer ur.unlanes(usc)

	lp := loopsOf(&s, st)
	if caT.h == nil && bitmapCells(1, outDim) >= 0 && (mv == nil || (mv.comp && mv.db != nil)) {
		zd = getLanes[T](outDim)
		bounds := []int{0, outDim}
		if w := workers(); w > 1 {
			bounds = rowChunks(caT.p, pullWorkQuantum, w*workOversubscribe)
		}
		st.fill(bounds, func(j int) int { return caT.p[j+1] - caT.p[j] + 1 })
		var nvals atomic.Int64
		runChunks(bounds, func(_, lo, hi int) {
			nvals.Add(int64(lp.pull(uok, ud, caT, lo, hi, mv, zd.b, zd.x)))
		})
		zd.nvals = int(nvals.Load())
		return nil, nil, zd
	}

	// Staging slot t holds column colOf(t), found at major position
	// majorOf(t) (-1: not stored, or not admitted).
	var n int
	var colOf, majorOf func(t int) int
	if mv != nil && !mv.comp {
		// The admitted output set, which may be empty: then nothing is
		// computed.
		targets := mv.idx
		if mv.val != nil {
			targets = nil
			for k, j := range mv.idx {
				if mv.val[k] {
					targets = append(targets, j)
				}
			}
		}
		n = len(targets)
		colOf = func(t int) int { return targets[t] }
		majorOf = func(t int) int {
			if ck, ok := caT.findMajor(targets[t]); ok {
				return ck
			}
			return -1
		}
	} else {
		// Every stored column the mask, if any, admits.
		n = caT.nvecs()
		colOf = caT.majorOf
		majorOf = func(t int) int {
			if mv.allowed(caT.majorOf(t)) {
				return t
			}
			return -1
		}
	}
	weight := func(t int) int {
		ck := majorOf(t)
		if ck < 0 {
			return 1
		}
		return caT.p[ck+1] - caT.p[ck] + 1
	}
	vals := make([]T, n)
	found := make([]bool, n)
	parallelWork(n, pullWorkQuantum, weight, st, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			if ck := majorOf(t); ck >= 0 {
				vals[t], found[t] = lp.dot(uok, ud, caT.i, caT.x, caT.p[ck], caT.p[ck+1])
			}
		}
	})
	zi = make([]int, 0, n)
	zx = make([]T, 0, n)
	for t := 0; t < n; t++ {
		if found[t] {
			zi = append(zi, colOf(t))
			zx = append(zx, vals[t])
		}
	}
	return zi, zx, nil
}
