package lagraph

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"lagraph/internal/grb"
	"lagraph/internal/obs"
)

// Incremental analytics: delta-aware variants of the three hottest
// algorithms, each warm-started from a prior result instead of the cold
// initial state. The correctness contract differs per algorithm and is
// what the metamorphic test battery (FuzzIncrementalEquivalence, the
// golden suite, lagraphd's TestSmoke dual pass) asserts:
//
//   - IncrementalCC: FastSV restarted from the prior label vector. Valid
//     only for insert-only deltas (components can merge but never split),
//     where it converges to the canonical min-id labeling — bitwise
//     identical to a full recompute.
//   - IncrementalBFSLevels: frontier repair for edge insertions. Levels
//     only decrease under insertions; seeding a relaxation from the
//     inserted edges reaches the unique BFS-level fixed point — bitwise
//     identical to a full recompute.
//   - PageRankWarm: the power iteration started from the prior rank
//     vector. Valid under ANY delta (the damped iteration is a
//     contraction with a unique fixed point), but float convergence is
//     tolerance-level, not bitwise: both answers are within
//     damping·tol/(1-damping) of the true fixed point in L1.

// ErrStalePrior reports that a prior result cannot seed a warm start:
// nil or mis-sized handle, labels out of range, a non-finite rank, or a
// delta window that is not insert-only. Callers fall back to the full
// algorithm.
var ErrStalePrior = errors.New("lagraph: prior result unusable for warm start")

// Delta summarizes the edge mutations applied to a graph since a prior
// result was computed — the shape catalog.Entry's delta log hands to the
// warm-start decision.
type Delta struct {
	// AddSrc/AddDst are parallel slices holding the endpoints of inserted
	// edges in application order. Undirected graphs record each edge
	// once; consumers mirror it themselves.
	AddSrc, AddDst []int
	// Removals counts edge-removal ops in the window.
	Removals int
	// Unknown marks a window whose mutation stream was not fully tracked
	// (an untracked Update, delta-log overflow, or a replication apply):
	// the prior is unusable for the exact warm starts.
	Unknown bool
}

// InsertOnly reports whether the delta is a fully tracked, insert-only
// window — the precondition for the exact CC and BFS warm starts.
func (d *Delta) InsertOnly() bool {
	return d != nil && !d.Unknown && d.Removals == 0
}

// Inserts returns the number of recorded insertions.
func (d *Delta) Inserts() int {
	if d == nil {
		return 0
	}
	return len(d.AddSrc)
}

// IncrementalCC recomputes connected components after an insert-only
// delta by restarting FastSV from the prior label vector. Inserted edges
// can only merge components, so every prior label still names a vertex
// inside the labeled vertex's (possibly larger) new component — exactly
// the initialization FastSV needs to converge to the canonical min-id
// labeling. The result is bitwise identical to ConnectedComponentsWith
// on the mutated graph; a delta with removals (splits possible) or an
// untracked window returns ErrStalePrior.
func IncrementalCC(g *Graph, prior *grb.Vector[int64], delta *Delta, opts ...Option) (*CCResult, error) {
	cfg := newOptions(opts)
	n := g.N()
	if prior == nil || prior.Size() != n || prior.Nvals() != n {
		return nil, fmt.Errorf("%w: cc prior missing or not dense over %d vertices", ErrStalePrior, n)
	}
	if !delta.InsertOnly() {
		return nil, fmt.Errorf("%w: cc warm start needs a tracked insert-only delta", ErrStalePrior)
	}
	// Labels double as gather indices inside FastSV: range-check them so a
	// corrupt prior cannot index out of bounds. A min-id labelling never
	// names a larger vertex, and FastSV only lowers a label, so a prior
	// that does would converge away from the cold answer.
	is, xs := prior.ExtractTuples()
	for k, x := range xs {
		if x < 0 || x > int64(is[k]) {
			return nil, fmt.Errorf("%w: cc prior label %d of vertex %d out of range", ErrStalePrior, x, is[k])
		}
	}
	return fastSVFrom(g, prior, true, &cfg)
}

// PageRankWarm computes PageRank starting the power iteration from a
// prior rank vector. The damped iteration contracts toward a unique
// fixed point, so a warm start is valid under any delta — insertions,
// removals, even an untracked window — and needs no Delta argument. The
// answer agrees with a full recompute to tolerance, not bitwise:
// ‖warm - full‖₁ ≤ 2·damping·tol/(1-damping).
func PageRankWarm(g *Graph, prior *grb.Vector[float64], opts ...Option) (*PageRankResult, error) {
	cfg := newOptions(opts)
	n := g.N()
	if prior == nil || prior.Size() != n || prior.Nvals() != n {
		return nil, fmt.Errorf("%w: pagerank prior missing or not dense over %d vertices", ErrStalePrior, n)
	}
	// A non-finite seed would poison every rank through the first MxV.
	_, xs := prior.ExtractTuples()
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("%w: pagerank prior has a non-finite entry", ErrStalePrior)
		}
	}
	return pageRankFrom(g, prior, true, &cfg)
}

// IncrementalBFSLevels repairs a BFS level vector after an insert-only
// delta. Edge insertions can only lower levels (or reach new vertices),
// so the prior levels are a valid upper bound; relaxing outward from the
// inserted edges' endpoints reaches the unique fixed point
// level(v) = min over in-neighbours u of level(u)+1 — bitwise identical
// to BFSLevels on the mutated graph. Returns the repaired levels and the
// number of propagation rounds (0 when no inserted edge improved
// anything). Deltas with removals or untracked windows return
// ErrStalePrior.
func IncrementalBFSLevels(g *Graph, src int, prior *grb.Vector[int32], delta *Delta, opts ...Option) (_ *grb.Vector[int32], _ int, err error) {
	defer catch(&err)
	try(g.checkSource(src))
	cfg := newOptions(opts)
	lp := cfg.loop("bfs")
	n := g.N()
	if prior == nil || prior.Size() != n {
		return nil, 0, fmt.Errorf("%w: bfs prior missing or mis-sized", ErrStalePrior)
	}
	if !delta.InsertOnly() {
		return nil, 0, fmt.Errorf("%w: bfs repair needs a tracked insert-only delta", ErrStalePrior)
	}

	// Dense scatter of the prior levels: lv/has is the working state the
	// relaxation improves in place (the prior vector itself is not
	// mutated).
	lv := make([]int32, n)
	has := make([]bool, n)
	pis, pxs := prior.ExtractTuples()
	for k, i := range pis {
		lv[i] = pxs[k]
		has[i] = true
	}
	if !has[src] || lv[src] != 0 {
		return nil, 0, fmt.Errorf("%w: bfs prior does not root at source %d", ErrStalePrior, src)
	}

	// relax lowers v's level to cand if that improves it, queueing v for
	// the next propagation round (deduplicated via queued).
	next := make([]int, 0, delta.Inserts())
	queued := make([]bool, n)
	relax := func(v int, cand int32) {
		if has[v] && lv[v] <= cand {
			return
		}
		lv[v] = cand
		has[v] = true
		if !queued[v] {
			queued[v] = true
			next = append(next, v)
		}
	}

	// Seed: endpoints improved directly by an inserted edge. The graph
	// already contains the delta's edges (the batch was applied before
	// the query ran), so propagation through A covers everything further
	// out. Undirected batches record each edge once; mirror it here.
	for k := range delta.AddSrc {
		u, v := delta.AddSrc[k], delta.AddDst[k]
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, 0, fmt.Errorf("%w: delta endpoint (%d,%d) out of range", ErrStalePrior, u, v)
		}
		if has[u] {
			relax(v, lv[u]+1)
		}
		if g.Kind == Undirected && has[v] {
			relax(u, lv[v]+1)
		}
	}

	minFirst := grb.Semiring[int32, float64, int32]{Add: grb.MinMonoid[int32](), Mul: grb.First[int32, float64]()}
	iters := 0
	for len(next) > 0 {
		try(lp.next())
		iters++
		// Frontier carries the improved vertices' new levels + 1: the
		// value each proposes to its out-neighbours.
		sort.Ints(next)
		frontierSize := len(next)
		is := make([]int, len(next))
		xs := make([]int32, len(next))
		for k, v := range next {
			is[k] = v
			xs[k] = lv[v] + 1
			queued[v] = false
		}
		next = next[:0]
		fr, err := grb.ImportSparse(n, is, xs, true)
		try(err)
		// cand(j) = min over frontier vertices i with an edge i→j of
		// lv(i)+1, pushed along edges like the full BFS's VxM.
		cand := grb.MustVector[int32](n)
		try(grb.VxM(cand, (*grb.Vector[bool])(nil), nil, minFirst, fr, g.A, nil))
		cis, cxs := cand.ExtractTuples()
		for k, v := range cis {
			relax(v, cxs[k])
		}
		lp.done(obs.IterRecord{Iter: iters, Frontier: frontierSize, Dir: "push", Warm: true})
	}

	// Rebuild the sparse level vector; indices ascend, so the tuple
	// stream is bitwise identical to a full BFS of the mutated graph.
	nnz := 0
	for i := range has {
		if has[i] {
			nnz++
		}
	}
	ris := make([]int, 0, nnz)
	rxs := make([]int32, 0, nnz)
	for i := 0; i < n; i++ {
		if has[i] {
			ris = append(ris, i)
			rxs = append(rxs, lv[i])
		}
	}
	out, err := grb.ImportSparse(n, ris, rxs, true)
	try(err)
	return out, iters, nil
}

// L1Distance returns ‖a-b‖₁ over the union of stored entries (a missing
// entry counts as zero) — the metric the equivalence battery uses to
// compare warm-started PageRank against a full recompute.
func L1Distance(a, b *grb.Vector[float64]) float64 {
	ais, axs := a.ExtractTuples()
	bis, bxs := b.ExtractTuples()
	sum := 0.0
	i, j := 0, 0
	for i < len(ais) || j < len(bis) {
		switch {
		case j >= len(bis) || (i < len(ais) && ais[i] < bis[j]):
			sum += math.Abs(axs[i])
			i++
		case i >= len(ais) || bis[j] < ais[i]:
			sum += math.Abs(bxs[j])
			j++
		default:
			sum += math.Abs(axs[i] - bxs[j])
			i++
			j++
		}
	}
	return sum
}
