package grb

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// maxWorkers caps kernel parallelism; 0 means GOMAXPROCS. Settable for
// experiments via SetParallelism. Accessed atomically so kernels may run
// from concurrent goroutines while the knob is turned.
var maxWorkers atomic.Int64

// SetParallelism bounds the number of worker goroutines used by parallel
// kernels (0 restores the default of GOMAXPROCS). It returns the previous
// setting. Safe to call concurrently; operations already in flight keep
// the worker count they started with.
func SetParallelism(n int) int {
	return int(maxWorkers.Swap(int64(n)))
}

func workers() int {
	// An explicit SetParallelism is honored verbatim — even above
	// GOMAXPROCS — because the determinism tests deliberately pin the
	// worker count above 1 on single-CPU hosts to exercise the concurrent
	// paths. Oversubscription overhead on small operations is instead
	// avoided structurally by seqFallbackWork: sub-threshold work never
	// chunks, so it never spawns workers at any parallelism setting.
	if n := maxWorkers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// workChunks splits [0,n) into contiguous ranges holding roughly equal
// total weight (estimated flops), not equal element counts: on power-law
// inputs equal-count splitting leaves one worker with the hub rows and the
// rest idle. Boundaries are found on the weight prefix sum, so a single
// huge element ends up alone in its chunk and the remaining work spreads
// over the other chunks.
//
// At most maxChunks ranges are produced, and none is created at all (a
// single [0,n) range is returned) while the total weight is below quantum
// or below seqFallbackWork — the sequential-fallback threshold under which
// goroutine dispatch and chunk merging cost more than the work itself.
// The boundaries depend only on (weights, quantum, maxChunks) — never on
// the current worker count — so callers that fold chunk results in chunk
// order get bitwise-identical output at any parallelism level.
func workChunks(n int, weight func(k int) int, quantum, maxChunks int) []int {
	if n <= 0 {
		return []int{0, 0}
	}
	// The prefix sums are scratch: pooled, so that partitioning an n-column
	// sweep allocates nothing proportional to n.
	buf, _ := prefixPool.Get().(*[]int)
	if buf == nil || cap(*buf) < n+1 {
		buf = new([]int)
		*buf = make([]int, n+1)
	}
	defer prefixPool.Put(buf)
	prefix := (*buf)[:n+1]
	prefix[0] = 0
	for k := 0; k < n; k++ {
		prefix[k+1] = prefix[k] + max(weight(k), 0)
	}
	return splitPrefix(n, func(k int) int { return prefix[k] }, quantum, maxChunks)
}

// rowChunks is workChunks over the rows of row pointers p, each weighing its
// entries plus one — a pull's weight, and a transpose's. That weight's
// prefix sum at k is p[k]−p[0]+k, so the bounds are read straight off p: no
// weight call a row, no prefix pass, no buffer.
func rowChunks(p []int, quantum, maxChunks int) []int {
	return splitPrefix(len(p)-1, func(k int) int { return p[k] - p[0] + k }, quantum, maxChunks)
}

// splitPrefix is workChunks' split of [0,n) given the weight prefix sum at
// each k in [0, n].
func splitPrefix(n int, prefix func(k int) int, quantum, maxChunks int) []int {
	if maxChunks < 1 {
		maxChunks = 1
	}
	total := prefix(n)
	if quantum < 1 {
		quantum = 1
	}
	if total < seqFallbackWork {
		return []int{0, n}
	}
	nchunks := total / quantum
	if nchunks > maxChunks {
		nchunks = maxChunks
	}
	if nchunks > n {
		nchunks = n
	}
	if nchunks <= 1 {
		return []int{0, n}
	}
	bounds := make([]int, 1, nchunks+1)
	for c := 1; c < nchunks; c++ {
		target := total / nchunks * c
		// First index whose prefix exceeds the target.
		b := sort.Search(n, func(k int) bool { return prefix(k+1) > target })
		if b <= bounds[len(bounds)-1] {
			continue // a heavy element swallowed this boundary
		}
		bounds = append(bounds, b)
	}
	bounds = append(bounds, n)
	return bounds
}

// prefixPool holds workChunks' prefix-sum buffers.
var prefixPool sync.Pool

// runChunks executes fn once per chunk of bounds, dynamically scheduled:
// workers pull the next chunk index from an atomic counter, so a worker
// that drew a light chunk immediately takes another while a worker stuck
// on a hub chunk keeps going. fn receives the chunk index and its range;
// it must confine its effects to per-chunk state or the range itself.
func runChunks(bounds []int, fn func(c, lo, hi int)) {
	nchunks := len(bounds) - 1
	if nchunks <= 0 {
		return
	}
	w := workers()
	if w > nchunks {
		w = nchunks
	}
	if w <= 1 {
		for c := 0; c < nchunks; c++ {
			fn(c, bounds[c], bounds[c+1])
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= nchunks {
					return
				}
				fn(c, bounds[c], bounds[c+1])
			}
		}()
	}
	wg.Wait()
}

// kernelStats is the scheduler's contribution to an op record: how much
// estimated work the kernel carried and how it was partitioned. A nil
// *kernelStats means observation is disabled and must cost nothing; a
// non-nil one is filled from the same (weights, quantum, maxChunks)
// arguments the partitioner saw, so recording never changes chunk
// boundaries — and therefore never changes results (the chunk-order
// merges fix the reduction association).
type kernelStats struct {
	estFlops      int64  // total estimated weight across all chunks
	chunks        int    // number of chunks the partitioner produced
	maxChunkFlops int64  // heaviest chunk's estimated weight
	ops           opsTag // the tagged loops the kernel ran (mono.go); zero: generic
}

// fill computes per-chunk weight sums for bounds; on a nil st it does
// nothing. It re-walks the weight function (an extra O(n) on the traced
// path only) rather than threading state through workChunks, keeping the
// untraced partitioner untouched.
func (st *kernelStats) fill(bounds []int, weight func(k int) int) {
	if st == nil {
		return
	}
	st.chunks += len(bounds) - 1
	for c := 0; c < len(bounds)-1; c++ {
		var sum int64
		for k := bounds[c]; k < bounds[c+1]; k++ {
			w := weight(k)
			if w < 0 {
				w = 0 // mirror workChunks's clamp
			}
			sum += int64(w)
		}
		st.estFlops += sum
		if sum > st.maxChunkFlops {
			st.maxChunkFlops = sum
		}
	}
}

// parallelWork runs fn over [0,n) split at equal-weight boundaries and
// dynamically scheduled: every parallel kernel's scheduler. weight(k) is
// the work index k costs — the entries it reads — and quantum the least
// weight worth a chunk; below seqFallbackWork in total, or at one worker,
// fn runs once over [0,n). fn must be safe for concurrent invocation on
// disjoint ranges. A non-nil st is filled from the partition it runs; a
// nil one records nothing (same branches, same bounds, no extra work).
func parallelWork(n, quantum int, weight func(k int) int, st *kernelStats, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if w := workers(); w > 1 {
		if bounds := workChunks(n, weight, quantum, w*workOversubscribe); len(bounds) > 2 {
			st.fill(bounds, weight)
			runChunks(bounds, func(_, lo, hi int) { fn(lo, hi) })
			return
		}
	}
	st.fill([]int{0, n}, weight)
	fn(0, n)
}

// rowSlices is the per-row staging area used by parallel kernels: each row
// is computed independently into its own slice pair, then stitched into a
// compressed structure. Stitching preserves row order, so parallel results
// are identical to sequential ones.
type rowSlices[T any] struct {
	idx [][]int
	val [][]T
}

func newRowSlices[T any](n int) *rowSlices[T] {
	return &rowSlices[T]{idx: make([][]int, n), val: make([][]T, n)}
}

// stitch assembles the staged rows into a cs. rows maps staging slot to
// major index (nil means slot k is major index k, i.e. standard layout; an
// mxm kernel passes A's, so a hypersparse A yields a hypersparse Z).
// Every kernel stages arrays it made for the row, never an operand's, so
// a lone non-empty row is adopted as the result's entries, spare capacity
// and all, instead of copied.
func (r *rowSlices[T]) stitch(nmajor, nminor int, rows []int) *cs[T] {
	z := &cs[T]{nmajor: nmajor, nminor: nminor, p: make([]int, 1, len(r.idx)+1)}
	if rows != nil {
		z.h = make([]int, 0, len(rows))
	}
	last := -1
	for k, s := range r.idx {
		if len(s) > 0 {
			last = k
		}
		if rows == nil || len(s) > 0 {
			z.p = append(z.p, z.p[len(z.p)-1]+len(s))
		}
		if rows != nil && len(s) > 0 {
			z.h = append(z.h, rows[k])
		}
	}
	total := z.p[len(z.p)-1]
	if last >= 0 && len(r.idx[last]) == total {
		z.i, z.x = r.idx[last], r.val[last]
		return z
	}
	z.i, z.x = make([]int, 0, total), make([]T, 0, total)
	for k := range r.idx {
		z.i = append(z.i, r.idx[k]...)
		z.x = append(z.x, r.val[k]...)
	}
	return z
}

// denseScratch is a dimension-sized accumulator for the scatter kernels
// (push vxm, Gustavson mxm, the pull kernel's view of a sparse u): val[j]
// is meaningful only where seen[j] is set, and touched lists the set
// positions. Kernels clear seen behind themselves, so a pooled scratch is
// always handed out clean and reuse never costs a memclr — on a
// high-diameter traversal that is one n-sized allocation per level saved.
// The same pool supplies the lanes of dense vector results (getLanes) and
// takes back, cleared, the ones a vector gives up (bm.release).
type denseScratch[T any] struct {
	val     []T
	seen    []bool
	touched []int
	mark    []uint8 // mask-first Gustavson's admission lane (marks)
}

// marks returns the scratch's n-cell mark lane, all zero: like seen, its
// user clears it behind itself.
func (sc *denseScratch[T]) marks(n int) []uint8 {
	if cap(sc.mark) < n {
		sc.mark = make([]uint8, n)
	}
	return sc.mark[:n]
}

// scratchPools maps an element type (keyed by its typed nil pointer) to
// the sync.Pool of its *denseScratch.
var scratchPools sync.Map

func scratchPool[T any]() *sync.Pool {
	key := any((*T)(nil))
	if p, ok := scratchPools.Load(key); ok {
		return p.(*sync.Pool)
	}
	p, _ := scratchPools.LoadOrStore(key, new(sync.Pool))
	return p.(*sync.Pool)
}

// getScratch returns a clean scratch of dimension n.
func getScratch[T any](n int) *denseScratch[T] {
	if sc, _ := scratchPool[T]().Get().(*denseScratch[T]); sc != nil && cap(sc.seen) >= n && cap(sc.val) >= n {
		sc.val, sc.seen = sc.val[:n], sc.seen[:n]
		return sc
	}
	return &denseScratch[T]{val: make([]T, n), seen: make([]bool, n)}
}

// putScratch returns a scratch whose seen lane the caller has cleared.
func putScratch[T any](sc *denseScratch[T]) {
	scratchPool[T]().Put(sc)
}
