package grb

import mathbits "math/bits"

// Every routing decision of the package, in one place: the predicates that
// pick a storage form, a kernel, a direction, a write route or an ordering
// route, and the constants they compare against. Each is a pure function of
// its operands' sizes — none reads a setting — so a result can depend on
// them only through speed. Kernels ask this file; they do not restate a
// bar inline. DESIGN.md "Storage formats and kernel selection" opens with
// the table of these routes: the unit each prices in, the experiment that
// set its constant, the ablation that shows its payoff.

// hyperThresholdDim is the minimum dimension before a matrix considers
// hypersparse storage, and hyperRatio the maximum fraction of non-empty
// rows for which hypersparse is chosen; an empty matrix is hypersparse
// from hyperThresholdDim·hyperRatio rows.
const (
	hyperThresholdDim = 4096
	hyperRatio        = 8 // hypersparse if non-empty rows < nrows/hyperRatio
)

// Dense eligibility: an object takes the dense form only when it is small
// enough that a dense array is affordable and dense enough that it pays.
const (
	// bitmapMaxCells caps nr*nc for any dense form (bools + values for
	// 2^22 cells of float64 ≈ 36 MiB, the outer edge of "cheap").
	bitmapMaxCells = 1 << 22
	// bitmapDenRatio selects the dense form when nvals ≥ nr*nc/bitmapDenRatio,
	// i.e. at ≥ 12.5% fill compressed indices are pure overhead.
	bitmapDenRatio = 8
)

// bitmapCells returns nr*nc if it is within the bitmap cap, or -1 when the
// product is too large (or would overflow).
func bitmapCells(nr, nc int) int {
	if nr <= 0 || nc <= 0 || nr > bitmapMaxCells || nc > bitmapMaxCells/nr {
		return -1
	}
	return nr * nc
}

// denseWanted is the promotion rule: cells is bitmapCells' answer.
func denseWanted(cells, nvals int) bool {
	return cells >= 0 && nvals*bitmapDenRatio >= cells
}

// countingRatio bounds the counting assembly route: it runs only while the
// dimensions it must sweep stay within this multiple of the tuple count.
const countingRatio = 4

// countingPays reports whether n tuples indexed into an nmajor×nminor space
// are ordered by the counting route — O(n + nmajor + nminor), no comparison
// — or by the comparison sort, O(n log n) whatever the dimensions. A pure
// function of the three sizes: a bulk load of a graph counts, while a
// 64-tuple ingest batch into a scale-13 graph and a hypersparse matrix of
// enormous dimension sort, staying O(batch) and O(nvals).
func countingPays(n, nmajor, nminor int) bool {
	return nmajor/countingRatio+nminor/countingRatio <= n
}

// chooseMxM picks a kernel and names the policy that picked it. With no
// mask the choice is static: heap when an output row is wider than a lane
// (bitmapCells) or A's rows are very short and the output dimension large,
// Gustavson otherwise. Under a mask that saxpy kernel is the push direction
// of a push–pull pair whose pull is the dot method, and the cheaper of the
// two by pullIsCheaper's estimates runs (policy "cost") — whichever way the
// mask is polarised.
func chooseMxM[A, B any](ca *cs[A], b *Matrix[B], tranB bool, mm *maskMat, outCols int) (MxMMethod, string) {
	push := MxMGustavson
	nv := ca.nvals()
	switch {
	case nv > 0 && bitmapCells(1, outCols) < 0:
		push = MxMHeap // no outCols-wide lane fits
	case ca.nvecs() > 0 && nv/ca.nvecs() <= 2 && outCols > 4096:
		push = MxMHeap
	}
	if mm == nil {
		return push, "static"
	}
	if pull, _ := pullIsCheaper(ca, b, tranB, mm, outCols); pull {
		return MxMDot, "cost"
	}
	return push, "cost"
}

// pullIsCheaper prices both directions of a masked product and reports
// whether the dot kernel's estimate (Σ pullRowCost) is below the saxpy
// kernels' (Σ saxpyFlops) — the weights those kernels partition by, so the
// op record's EstFlops is the estimate that won.
//
// Pricing never costs more than the direction it picks. Push is priced
// first, in O(nnz(A)), which a push pays anyway. A pull visits every column
// position its mask makes it enumerate — the stored entries of a positive
// mask's row, all nc columns under a complemented one — so the count of
// those visits, known without reading the mask, is a floor on it: a push at
// or under the floor is taken there and then (priced false), which is how a
// small frontier under a complemented `visited` mask stays O(frontier).
// Only a push above the floor pays for the walk over the admitted outputs
// that prices the pull, a walk no longer than the floor, abandoned at the
// first row that takes the pull past the push.
func pullIsCheaper[A, B any](ca *cs[A], b *Matrix[B], tranB bool, mm *maskMat, nc int) (cheaper, priced bool) {
	cb := orientedCSR(b, tranB)
	push, floor := 0, 0
	for k := 0; k < ca.nvecs(); k++ {
		push += saxpyFlops(ca, cb, k)
		floor++
		if la := ca.p[k+1] - ca.p[k]; la > 0 {
			floor += la + mm.visits(ca.majorOf(k), nc)
		}
	}
	if push <= floor {
		return false, false
	}
	cbT := orientedCSC(b, tranB)
	pull := 0
	for k := 0; k < ca.nvecs() && pull < push; k++ {
		pull += pullRowCost(ca, k, mm, nc, cbT)
	}
	return pull < push, true
}

// pullRowCost estimates the work of A's stored row k under the dot kernel:
// one step per column position the mask makes it visit, the row itself
// (scattered once into a lane), and the probes of each admitted dot — the
// length of B's column (cbT is B's column-major view).
func pullRowCost[A, B any](ca *cs[A], k int, mm *maskMat, nc int, cbT *cs[B]) int {
	la := ca.p[k+1] - ca.p[k]
	if la == 0 {
		return 1
	}
	row := ca.majorOf(k)
	cost := 1 + la + mm.visits(row, nc)
	mm.eachAdmitted(row, nc, func(j int) {
		if bk, ok := cbT.findMajor(j); ok {
			cost += cbT.p[bk+1] - cbT.p[bk]
		}
	})
	return cost
}

// mxmWorkQuantum is the minimum estimated work — flops for the mxm
// kernels, entries for the row-wise structural ops (kronecker, extract,
// select) — before a kernel spins up worker goroutines.
const mxmWorkQuantum = 1 << 12

// saxpyFlops estimates the work of A's stored row k under Gustavson or the
// heap method: the summed degrees of the B rows it selects. On power-law
// graphs this varies by orders of magnitude across rows, which is why the
// kernels partition by it rather than by row count.
func saxpyFlops[A, B any](ca *cs[A], cb *cs[B], k int) int {
	ai, _ := ca.vec(k)
	f := 1
	for _, j := range ai {
		if bk, ok := cb.findMajor(j); ok {
			f += cb.p[bk+1] - cb.p[bk]
		}
	}
	return f
}

// maskFirstPays is mask-first Gustavson's bar for one row: scattering the
// positive mask row (maskLen entries) before the multiply pays while it is
// no longer than sorting the row's products could cost, f·bitlen(f) with f
// the row's flop estimate; past it (a near-dense mask over a short row) the
// row is accumulated whole, sorted and filtered.
func maskFirstPays(maskLen, flops int) bool {
	return maskLen <= flops*mathbits.Len(uint(flops))
}

// dotScatters is mxmDot's scatter bar: a row of la entries is scattered
// when it is longer than dotScatterRatio average columns of B (nnzB
// entries in ncolsB stored columns) and an inner-dimension lane is within
// bitmapMaxCells, the cap of every dense form. pullRowCost prices every
// dot as a lane probe, so a lower cap would make a long row past it merge
// with each column at a cost the direction choice never saw.
func dotScatters(la, nnzB, ncolsB, inner int) bool {
	return inner <= bitmapMaxCells && la*ncolsB > dotScatterRatio*nnzB
}

// dotScatterRatio is how many times longer than B's average column a row
// of A must be before mxmDot scatters it and walks each column against the
// lane, rather than merging the row with every column it meets.
const dotScatterRatio = 8

// chooseDirection implements the GraphBLAST switch: pull when the input
// vector is dense relative to its dimension (or the mask admits few
// outputs), push otherwise.
func chooseDirection[U any](u *Vector[U], mv *maskVec, outDim int) Direction {
	un := u.Nvals()
	if mv != nil && !mv.comp && mv.val == nil && mv.nstored < outDim/pushPullRatio {
		// A sparse positive mask bounds the pull work tightly.
		return DirPull
	}
	if un > u.n/pushPullRatio {
		return DirPull
	}
	return DirPush
}

// pushPullRatio is the DirAuto switch threshold: pull is chosen when
// nvals(input) > dim/pushPullRatio.
const pushPullRatio = 16

// inPlaceRoute reports whether the in-place route is open. comp is the
// mask's complement flag, meaningless when masked is false.
func inPlaceRoute(hasAccum, masked, comp, replace bool) bool {
	if hasAccum {
		return !(masked && replace)
	}
	return masked && !comp && !replace
}

// laneMaskOpen reports whether a write mask leaves the dense result route
// open: a positive mask holding fewer entries than the promotion bar bounds
// the output below it, and the mask-driven kernels are output-sensitive
// where a lane pass is not.
func laneMaskOpen[M any](mask *Vector[M], d descValues) bool {
	return mask == nil || d.Comp || mask.ref().denseEligible(mask.n)
}

// probeCost is what one get on r costs, in units of one merge step.
func probeCost[T any](r rowRef[T]) int {
	if r.b != nil {
		return 1
	}
	return 1 + mathbits.Len(uint(len(r.idx)))
}

// searchBeatsWalk is maskVec.tester's bar: k ascending queries against n
// sorted entries cost k·bitlen(n) by binary search and n by a cursor walk.
func searchBeatsWalk(k, n int) bool {
	return k*mathbits.Len(uint(n)) < n
}

// seqFallbackWork is the estimated-flop total below which the partitioner
// refuses to create chunks at all, regardless of quantum: spawning workers
// for an operation this small costs more in goroutine dispatch and chunk
// merging than the operation itself (the source of the small-op
// regressions recorded in bench/history/BENCH_1.json). Serial execution of a sub-threshold op is also exactly the
// chunk-order fold of its would-be chunks, so results are unchanged.
const seqFallbackWork = 1 << 16

// workOversubscribe is how many chunks parallelWork creates per worker.
// Finer chunks let the dynamic scheduler absorb estimation error (the
// weight function is an estimate, not a measurement) at the cost of a
// little scheduling overhead.
const workOversubscribe = 4

// Push-kernel chunking: the frontier is cut at equal-flop boundaries once
// the estimated work passes pushWorkQuantum, into at most pushMaxChunks
// pieces. The chunk boundaries depend only on the input — never on the
// worker count — and chunk partials are always folded in chunk order, so
// the result is bitwise identical at any parallelism level (association of
// a non-commutative-rounding Add is fixed by the chunking, not by the
// scheduler).
const (
	pushWorkQuantum = 1 << 13
	pushMaxChunks   = 64
)

// pullWorkQuantum is the minimum estimated flop count before the pull
// kernel spins up worker goroutines.
const pullWorkQuantum = 1 << 12

// reduceChunkEntries is the entry count per chunk of a matrix-to-scalar
// reduction (at most pushMaxChunks chunks, folded in chunk order).
const reduceChunkEntries = 1 << 14

// extractBlockEntries is how many entries extractPermuted buckets at a time
// (at least; never fewer than the output has columns, so that sweeping the
// column buckets stays O(1) per entry): small enough that a block's buckets
// stay in cache while entries drop into them in no particular order.
const extractBlockEntries = 1 << 14

// transposeParallelMin is the entry count above which transposeCS runs the
// two-pass parallel bucket transpose instead of the serial one.
const transposeParallelMin = 1 << 14
