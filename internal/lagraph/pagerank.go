package lagraph

import (
	"math"

	"lagraph/internal/grb"
	"lagraph/internal/obs"
)

// PageRank (§V, [39]) in the GAP-benchmark formulation used by LAGraph:
// rank is held in a dense vector, importance flows along transposed
// edges, dangling vertices redistribute uniformly, and iteration stops on
// an L1-norm tolerance.

// PageRankResult carries the ranking and convergence information.
type PageRankResult struct {
	Rank       *grb.Vector[float64]
	Iterations int
	Converged  bool
}

// PageRankWith computes the damped PageRank of every vertex. Defaults:
// damping 0.85, tolerance 1e-4, at most 100 iterations.
func PageRankWith(g *Graph, opts ...Option) (*PageRankResult, error) {
	cfg := newOptions(opts)
	return pageRankFrom(g, nil, false, &cfg)
}

// pageRankFrom runs the power iteration from an initial rank vector. r0
// nil selects the cold uniform start 1/n; a warm start passes a prior
// rank vector (see PageRankWarm). The iteration map is a contraction
// with factor ≤ damping in L1, so any start converges to the same unique
// fixed point; the residual stop then bounds the distance between a warm
// and a cold answer by 2·damping·tol/(1-damping). The per-iteration op
// sequence is identical in both modes — cold results are bitwise
// unchanged by this refactor.
func pageRankFrom(g *Graph, r0 *grb.Vector[float64], warm bool, cfg *Options) (_ *PageRankResult, err error) {
	defer catch(&err)
	damping := cfg.Damping
	if damping == 0 {
		damping = 0.85
	}
	if damping <= 0 || damping >= 1 {
		return nil, ErrBadArgument
	}
	tol := cfg.tol(1e-4)
	maxIter := cfg.maxIter(100)
	lp := cfg.loop("pagerank")
	n := g.N()
	nf := float64(n)

	// dOut(i) = out-degree; invOut(i) = 1 / dOut(i) where dOut>0.
	deg := g.OutDegree()
	invOut := grb.MustVector[float64](n)
	try(grb.ApplyVector[int64, float64, bool](invOut, nil, nil,
		func(d int64) float64 { return 1 / float64(d) }, deg, nil))
	// The dangling vertices (no out-edges), listed once, so each iteration
	// gathers their rank instead of sweeping ¬deg over all n positions.
	isDangling := grb.MustVector[bool](n)
	try(grb.AssignVectorScalar(isDangling, deg, nil, true, grb.All, grb.DescC))
	dangling, _ := isDangling.ExtractTuples()
	isDangling.Clear()

	var r *grb.Vector[float64]
	if r0 == nil {
		r = grb.DenseVector(constants(n, 1/nf))
	} else {
		r = r0.Dup()
	}
	// Workspaces, allocated once. r and t swap roles each iteration: t
	// holds the previous rank, then |Δ|. The closure reads t at exit, after
	// the swaps, so the returned r is never among the cleared.
	t, out, w, dr := grb.MustVector[float64](n), grb.MustVector[float64](n), grb.MustVector[float64](n), grb.MustVector[float64](len(dangling))
	defer func() { invOut.Clear(); t.Clear(); out.Clear(); w.Clear(); dr.Clear() }()
	plusSecond, plus := grb.PlusSecond[float64](), grb.Plus[float64]()
	scale := func(x float64) float64 { return damping * x }
	absDiff := func(x, y float64) float64 { return math.Abs(x - y) }

	for iter := 1; iter <= maxIter; iter++ {
		try(lp.next())
		// Dangling mass this round, O(#dangling). grb reads an empty index
		// list as All, so with no dangling vertex the gather is skipped.
		var danglingMass float64
		if len(dangling) > 0 {
			try(grb.ExtractVector[float64, bool](dr, nil, nil, r, dangling, nil))
			danglingMass, err = grb.ReduceVectorToScalar(grb.PlusMonoid[float64](), dr)
			try(err)
		}

		// out(i) = r(i)/deg(i) for non-dangling vertices.
		try(grb.EWiseMultVector[float64, float64, float64, bool](out, nil, nil, grb.Times[float64](), r, invOut, nil))
		// w = Aᵀ ⊕.⊗ out (importance flows along in-edges). The
		// plus.second semiring ignores the stored weight: PageRank is a
		// structural algorithm.
		try(grb.MxV(w, (*grb.Vector[bool])(nil), nil, plusSecond, g.A, out, grb.DescT0))
		// r ← base + damping·w with base = (1-damping)/n + damping·mass/n,
		// in place over the previous-but-one rank.
		r, t = t, r
		try(grb.AssignVectorScalar[float64, bool](r, nil, nil, (1-damping)/nf+damping*danglingMass/nf, grb.All, nil))
		try(grb.ApplyVector[float64, float64, bool](r, nil, plus, scale, w, nil))

		// L1 distance ‖r - t‖₁, as t ← |t - r| in one pass. Both are full, so
		// eWiseAdd's one-sided arm, which would skip the abs, never runs.
		try(grb.EWiseAddVector[float64, bool](t, nil, nil, absDiff, t, r, nil))
		l1, err := grb.ReduceVectorToScalar(grb.PlusMonoid[float64](), t)
		try(err)
		lp.done(obs.IterRecord{Iter: iter, Residual: l1, Warm: warm})
		if l1 < tol {
			return &PageRankResult{Rank: r, Iterations: iter, Converged: true}, nil
		}
	}
	return &PageRankResult{Rank: r, Iterations: maxIter, Converged: false}, nil
}

func constants(n int, v float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = v
	}
	return xs
}

// TopK returns the indices of the k largest entries of a rank vector, in
// descending order.
func TopK(v *grb.Vector[float64], k int) []int {
	is, xs := v.ExtractTuples()
	type pair struct {
		i int
		x float64
	}
	ps := make([]pair, len(is))
	for t := range is {
		ps[t] = pair{is[t], xs[t]}
	}
	// partial selection sort for small k
	if k > len(ps) {
		k = len(ps)
	}
	for a := 0; a < k; a++ {
		best := a
		for b := a + 1; b < len(ps); b++ {
			if ps[b].x > ps[best].x {
				best = b
			}
		}
		ps[a], ps[best] = ps[best], ps[a]
	}
	out := make([]int, k)
	for a := 0; a < k; a++ {
		out[a] = ps[a].i
	}
	return out
}
