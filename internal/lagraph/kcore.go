package lagraph

import "lagraph/internal/grb"

// K-core decomposition in GraphBLAS form (the LAGraph_KCore algorithm):
// peel vertices of minimum remaining degree level by level; each peel is
// a select, a masked matrix-vector multiply counting the edges lost, and
// a degree update — no explicit adjacency-list surgery.

// KCore returns the core number of every vertex of an undirected graph.
func KCore(g *Graph) (_ *grb.Vector[int64], err error) {
	defer catch(&err)
	try(g.requireUndirected())
	n := g.N()
	core := grb.MustVector[int64](n)

	// Remaining degrees; vertices with no edges have core 0 and are never
	// touched below (they hold no entry in deg).
	deg := g.OutDegree().Dup()
	plusPair := grb.Semiring[float64, int64, int64]{Add: grb.PlusMonoid[int64](), Mul: grb.Pair[float64, int64, int64]()}

	k := int64(0)
	for deg.Nvals() > 0 {
		minDeg, err := grb.ReduceVectorToScalar(grb.MinMonoid[int64](), deg)
		try(err)
		if minDeg > k {
			k = minDeg
		}
		// Peel everything of remaining degree ≤ k until none is left.
		for {
			frontier := grb.MustVector[int64](n)
			try(grb.SelectVector[int64, bool](frontier, nil, nil,
				func(d int64, _, _ int) bool { return d <= k }, deg, nil))
			if frontier.Nvals() == 0 {
				break
			}
			// core⟨frontier⟩ = k
			try(grb.AssignVectorScalar(core, frontier, nil, k, grb.All, nil))
			// Remove the peeled vertices from deg.
			fi, _ := frontier.ExtractTuples()
			for _, v := range fi {
				_ = deg.RemoveElement(v)
			}
			// lost(i) = edges from i into the peeled set; deg⟨struct⟩ -= lost.
			lost := grb.MustVector[int64](n)
			try(grb.MxV(lost, deg, nil, plusPair, g.A, frontier, nil))
			try(grb.EWiseAddVector[int64, bool](deg, nil, nil,
				grb.Minus[int64](), deg, lost, nil))
		}
	}
	return core, nil
}

// Coreness returns the largest k for which a non-empty k-core exists (the
// graph's degeneracy).
func Coreness(g *Graph) (_ int64, err error) {
	defer catch(&err)
	core, err := KCore(g)
	try(err)
	if core.Nvals() == 0 {
		return 0, nil
	}
	return grb.ReduceVectorToScalar(grb.MaxMonoid[int64](), core)
}
