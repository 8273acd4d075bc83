package lagraph

import (
	"errors"
	"fmt"
	"math"
	"slices"

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
//   - IncrementalBFSLevels: a masked relaxation for edge insertions.
//     Levels only decrease under insertions; seeding it from the inserted
//     edges reaches the unique BFS-level fixed point — bitwise identical
//     to a full recompute.
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
// inserted edges reaches the unique fixed point
// level(v) = min over in-neighbours u of level(u)+1 — bitwise identical
// to BFSLevels on the mutated graph. The relaxation is SSSPBellmanFord's
// over the (min, first+1) semiring: the seed proposes through Δ, the
// batch's edges, from the prior levels alone, so its rounds and frontiers
// do not depend on the order of the batch. Returns the repaired levels
// and the number of propagation rounds (0 when no inserted edge improved
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
	if l, err := prior.GetElement(src); err != nil || l != 0 {
		return nil, 0, fmt.Errorf("%w: bfs prior does not root at source %d", ErrStalePrior, src)
	}
	// Δᵀ: an undirected batch records each edge once, so it is mirrored
	// here. Its weights are never read.
	is, js := delta.AddSrc, delta.AddDst
	if g.Kind == Undirected {
		is, js = slices.Concat(is, js), slices.Concat(js, is)
	}
	dT := grb.MustMatrix[float64](n, n)
	if err := dT.Build(js, is, make([]float64, len(is)), grb.First[float64, float64]()); err != nil {
		return nil, 0, fmt.Errorf("%w: delta edge out of range: %w", ErrStalePrior, err)
	}
	// lv holds a level for every vertex, noLevel where none is known yet,
	// so it stays in dense lanes and each round writes into it in place.
	lv := grb.DenseVector(slices.Repeat([]int32{noLevel}, n))
	try(grb.AssignVector(lv, prior, nil, prior, grb.All, nil))
	// cand = lv min.(first+1) Δ, which pulls over Δᵀ's stored rows: the
	// inserted edges' heads. The graph already holds the batch, so what
	// the seed improves relaxes on through A.
	cand := grb.MustVector[int32](n)
	try(grb.VxM(cand, noMask, nil, minSucc, lv, dT, descT))
	for rounds := 0; ; rounds++ {
		// stale⟨cand⟩ = cand ≥ lv;  fr⟨¬stale,replace⟩ = cand: the
		// candidates strictly below a level or newly reached.
		stale := grb.MustVector[bool](n)
		try(grb.EWiseMultVector(stale, cand, nil, notLessLevel, cand, lv, nil))
		fr := grb.MustVector[int32](n)
		try(grb.AssignVector(fr, stale, nil, cand, grb.All, descRVC))
		if fr.Nvals() == 0 {
			out := grb.MustVector[int32](n)
			try(grb.SelectVector(out, noMask, nil, reached, lv, nil))
			return out, rounds, nil
		}
		try(lp.next())
		// lv⟨fr⟩ = fr;  cand = fr min.(first+1) A, in the direction grb
		// chooses (asking which is O(1)).
		try(grb.AssignVector(lv, fr, nil, fr, grb.All, nil))
		cand = grb.MustVector[int32](n)
		try(grb.VxM(cand, noMask, nil, minSucc, fr, g.A, nil))
		lp.done(obs.IterRecord{Iter: rounds + 1, Frontier: fr.Nvals(), Dir: dirString(grb.VxMDirection(noMask, fr, g.A, nil)), Warm: true})
	}
}

// The BFS repair's operators. noLevel stands for a vertex no level has
// reached: one below int32's top, so the proposal of such a vertex,
// noLevel+1, neither wraps nor improves anything. minSucc proposes one
// level beyond a frontier vertex's and keeps the lowest proposal;
// notLessLevel marks a proposal that improves nothing; reached keeps the
// levels a BFS stores; descT reads Δᵀ as Δ.
const noLevel = math.MaxInt32 - 1

var (
	minSucc = grb.Semiring[int32, float64, int32]{
		Add: grb.MinMonoid[int32](),
		Mul: func(l int32, _ float64) int32 { return l + 1 },
	}
	notLessLevel = grb.Ge[int32]()
	reached      = func(l int32, _, _ int) bool { return l < noLevel }
	noMask       *grb.Vector[bool]
	descT        = &grb.Descriptor{TranA: true}
)

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
