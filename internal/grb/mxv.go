package grb

import (
	"sort"
	"sync"
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
	ar, ac := a.nr, a.nc
	if d.TranA {
		ar, ac = ac, ar
	}
	if u.n != ar || w.n != ac {
		return opErrorf(op, ErrDimensionMismatch, "u is %d, A is %d×%d, w is %d", u.n, ar, ac, w.n)
	}
	if mask != nil && mask.n != w.n {
		return opErrorf(op, ErrDimensionMismatch, "mask is %d, w is %d", mask.n, w.n)
	}
	mv := newMaskVec(mask, d)

	// Kernel selection. A forced direction is honored verbatim; DirAuto
	// engages the GraphBLAST push/pull density switch, a pure function of
	// the operands. Both kernels accumulate each output in ascending
	// input-index order, so the choice can never change results — only
	// speed.
	kernel := "push"
	policy := "forced"
	switch d.Dir {
	case DirPull:
		kernel = "pull"
	case DirPush:
		kernel = "push"
	default:
		policy = "static"
		if chooseDirection(u, a, d, mv, ac) == DirPull {
			kernel = "pull"
		}
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
	var zd *bm[T] // the pull kernel's result when it swept every output
	var nnzA int
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
		zi, zx = vxmPush(u, ca, s, mv, ac, st)
	}
	nnzOut := len(zi)
	var route string
	var err error
	if zd != nil {
		nnzOut = zd.nvals
		route, err = writeVectorLanesRouted(w, mask, accum, zd, d)
	} else {
		route, err = writeVectorRouted(w, mask, accum, zi, zx, d)
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
		ob.Op(obs.OpRecord{
			Op: op, Kernel: kernel, Policy: policy,
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

// chooseDirection implements the GraphBLAST switch: pull when the input
// vector is dense relative to its dimension (or the mask admits few
// outputs), push otherwise.
func chooseDirection[U, A any](u *Vector[U], a *Matrix[A], d descValues, mv *maskVec, outDim int) Direction {
	un := u.Nvals()
	if mv != nil && !mv.comp && mv.val == nil && mv.nstored < outDim/d.PushPullRatio {
		// A sparse positive mask bounds the pull work tightly.
		return DirPull
	}
	if un > u.n/d.PushPullRatio {
		return DirPull
	}
	return DirPush
}

// Push-kernel chunking: the frontier is cut at equal-flop boundaries once
// the estimated work passes pushWorkQuantum, into at most pushMaxChunks
// pieces. The chunk boundaries depend only on the input — never on the
// worker count — and chunk partials are always merged in chunk order, so
// the result is bitwise identical at any parallelism level (association of
// a non-commutative-rounding Add is fixed by the chunking, not by the
// scheduler).
const (
	pushWorkQuantum = 1 << 13
	pushMaxChunks   = 64
)

// sparsePart is one chunk's partial result: indices sorted ascending.
type sparsePart[T any] struct {
	i []int
	x []T
}

// vxmPush computes z = uᵀ·A by scattering each selected row of A
// (Gustavson over a single "row": SpMSpV). Memory: a dense accumulator
// when the output dimension is modest, a hash accumulator in the
// hypersparse regime. Large frontiers are split into flop-balanced chunks
// scattered concurrently (each worker reusing one accumulator) and merged
// with a k-way pass.
func vxmPush[A, U, T any](u *Vector[U], ca *cs[A], s Semiring[U, A, T], mv *maskVec, outDim int, st *kernelStats) ([]int, []T) {
	ui, ux := u.ref().entries()
	useHash := outDim >= hyperThresholdDim*hyperRatio
	deg := func(t int) int {
		rk, ok := ca.findMajor(ui[t])
		if !ok {
			return 1
		}
		return ca.p[rk+1] - ca.p[rk] + 1
	}
	bounds := workChunks(len(ui), deg, pushWorkQuantum, pushMaxChunks)
	nchunks := len(bounds) - 1
	if st != nil {
		st.fill(bounds, deg) // read-only: never perturbs the bounds
	}

	parts := make([]sparsePart[T], nchunks)
	if nchunks <= 1 {
		if useHash {
			parts[0].i, parts[0].x = scatterRowsHash(ui, ux, ca, s)
		} else {
			sc := getScratch[T](outDim)
			parts[0].i, parts[0].x = scatterRowsDense(ui, ux, ca, s, sc)
			putScratch(sc)
		}
	} else {
		w := workers()
		if w > nchunks {
			w = nchunks
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(w)
		for g := 0; g < w; g++ {
			go func() {
				defer wg.Done()
				var sc *denseScratch[T]
				if !useHash {
					sc = getScratch[T](outDim)
					defer putScratch(sc)
				}
				for {
					c := int(next.Add(1)) - 1
					if c >= nchunks {
						return
					}
					lo, hi := bounds[c], bounds[c+1]
					if useHash {
						parts[c].i, parts[c].x = scatterRowsHash(ui[lo:hi], ux[lo:hi], ca, s)
					} else {
						parts[c].i, parts[c].x = scatterRowsDense(ui[lo:hi], ux[lo:hi], ca, s, sc)
					}
				}
			}()
		}
		wg.Wait()
	}

	zi, zx := parts[0].i, parts[0].x
	if nchunks > 1 {
		zi, zx = mergeAddParts(parts, s.Add)
	}
	return filterAdmitted(zi, zx, mv)
}

// scatterRowsDense accumulates the selected rows of one frontier chunk
// into the caller's pooled dense accumulator (reused across chunks by each
// worker) and extracts the touched entries sorted into fresh exact-size
// arrays, clearing the accumulator behind itself.
func scatterRowsDense[A, U, T any](ui []int, ux []U, ca *cs[A], s Semiring[U, A, T], sc *denseScratch[T]) ([]int, []T) {
	val, seen, touched := sc.val, sc.seen, sc.touched[:0]
	for t, k := range ui {
		rk, ok := ca.findMajor(k)
		if !ok {
			continue
		}
		ri, rx := ca.vec(rk)
		uv := ux[t]
		for p := range ri {
			j := ri[p]
			if seen[j] {
				if s.Add.Terminal != nil && s.Add.Terminal(val[j]) {
					continue
				}
				val[j] = s.Add.Op(val[j], s.Mul(uv, rx[p]))
			} else {
				seen[j] = true
				val[j] = s.Mul(uv, rx[p])
				touched = append(touched, j)
			}
		}
	}
	sort.Ints(touched)
	zi := make([]int, len(touched))
	zx := make([]T, len(touched))
	for t, j := range touched {
		zi[t] = j
		zx[t] = val[j]
		seen[j] = false
	}
	sc.touched = touched
	return zi, zx
}

// scatterRowsHash is the O(chunk flops)-memory scatter used when the
// output dimension is enormous (hypersparse regime).
func scatterRowsHash[A, U, T any](ui []int, ux []U, ca *cs[A], s Semiring[U, A, T]) ([]int, []T) {
	acc := make(map[int]T)
	for t, k := range ui {
		rk, ok := ca.findMajor(k)
		if !ok {
			continue
		}
		ri, rx := ca.vec(rk)
		uv := ux[t]
		for p := range ri {
			j := ri[p]
			if old, ok := acc[j]; ok {
				if s.Add.Terminal != nil && s.Add.Terminal(old) {
					continue
				}
				acc[j] = s.Add.Op(old, s.Mul(uv, rx[p]))
			} else {
				acc[j] = s.Mul(uv, rx[p])
			}
		}
	}
	zi := make([]int, 0, len(acc))
	for j := range acc {
		zi = append(zi, j)
	}
	sort.Ints(zi)
	zx := make([]T, len(zi))
	for t, j := range zi {
		zx[t] = acc[j]
	}
	return zi, zx
}

// mergeAddParts k-way merges sorted chunk partials, combining entries that
// appear in several chunks with the additive monoid, strictly in chunk
// order (chunk 0's contribution first): the fixed association that makes
// chunked push deterministic.
func mergeAddParts[T any](parts []sparsePart[T], add Monoid[T]) ([]int, []T) {
	heads := make([]int, len(parts))
	total := 0
	for _, p := range parts {
		total += len(p.i)
	}
	zi := make([]int, 0, total)
	zx := make([]T, 0, total)
	for {
		best := -1
		for c := range parts {
			if heads[c] == len(parts[c].i) {
				continue
			}
			if best < 0 || parts[c].i[heads[c]] < parts[best].i[heads[best]] {
				best = c
			}
		}
		if best < 0 {
			return zi, zx
		}
		j := parts[best].i[heads[best]]
		acc := parts[best].x[heads[best]]
		heads[best]++
		for c := best + 1; c < len(parts); c++ {
			if heads[c] < len(parts[c].i) && parts[c].i[heads[c]] == j {
				if add.Terminal == nil || !add.Terminal(acc) {
					acc = add.Op(acc, parts[c].x[heads[c]])
				}
				heads[c]++
			}
		}
		zi = append(zi, j)
		zx = append(zx, acc)
	}
}

// pullWorkQuantum is the minimum estimated flop count before the pull
// kernel spins up worker goroutines.
const pullWorkQuantum = 1 << 12

// vxmPull computes z(j) = u·A(:,j) for each admitted output j, with early
// exit on terminal monoids. caT is the column-major view of the effective
// matrix, so caT's major vectors are the columns of A. Outputs are staged
// per column, so results are independent of the partitioning; columns are
// partitioned at equal-degree boundaries (hub columns of a power-law graph
// otherwise serialize the sweep).
//
// With no mask, or a mask that can only be probed (complemented and
// dense-held), every column is a candidate and the staging area is indexed
// by column: it *is* the result's dense lanes, returned as zd for the
// write rule's dense arms instead of being compacted. Under an enumerable
// mask the admitted columns are staged and compacted into (zi, zx).
func vxmPull[A, U, T any](u *Vector[U], caT *cs[A], s Semiring[U, A, T], mv *maskVec, outDim int, st *kernelStats) (zi []int, zx []T, zd *bm[T]) {
	// u is probed once per matrix entry: straight off its dense lanes when
	// it has them, otherwise off a pooled scratch it is scattered into.
	ur := u.ref()
	uok, ud, usc := ur.lanes(u.n)
	defer ur.unlanes(usc)

	dotCol := func(ck int) (T, bool) {
		ci, cx := caT.vec(ck)
		var acc T
		found := false
		for t := range ci {
			i := ci[t]
			if !uok[i] {
				continue
			}
			p := s.Mul(ud[i], cx[t])
			if found {
				acc = s.Add.Op(acc, p)
			} else {
				acc = p
				found = true
			}
			if s.Add.Terminal != nil && s.Add.Terminal(acc) {
				return acc, true
			}
		}
		return acc, found
	}

	if caT.h == nil && bitmapCells(1, outDim) >= 0 && (mv == nil || (mv.comp && mv.db != nil)) {
		zd = getLanes[T](outDim)
		var nvals atomic.Int64
		weight := func(j int) int { return caT.p[j+1] - caT.p[j] + 1 }
		parallelWorkObs(outDim, pullWorkQuantum, weight, st, func(lo, hi int) {
			cnt := 0
			for j := lo; j < hi; j++ {
				if !mv.allowed(j) {
					continue
				}
				if v, ok := dotCol(j); ok {
					zd.x[j], zd.b[j] = v, true
					cnt++
				}
			}
			nvals.Add(int64(cnt))
		})
		zd.nvals = int(nvals.Load())
		return nil, nil, zd
	}

	// The admitted output set.
	var targets []int
	if mv != nil && !mv.comp && mv.val == nil {
		targets = mv.idx
	} else if mv != nil {
		allowed := mv.cursor()
		for j := 0; j < outDim; j++ {
			if allowed(j) {
				targets = append(targets, j)
			}
		}
	}

	// Staging slot t holds column colOf(t), found at major position
	// majorOf(t) (-1: not stored).
	var n int
	var colOf, majorOf func(t int) int
	if targets != nil {
		n = len(targets)
		colOf = func(t int) int { return targets[t] }
		majorOf = func(t int) int {
			if ck, ok := caT.findMajor(targets[t]); ok {
				return ck
			}
			return -1
		}
	} else {
		// No mask: sweep all stored columns.
		n = caT.nvecs()
		colOf = caT.majorOf
		majorOf = func(t int) int { return t }
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
	parallelWorkObs(n, pullWorkQuantum, weight, st, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			if ck := majorOf(t); ck >= 0 {
				vals[t], found[t] = dotCol(ck)
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
