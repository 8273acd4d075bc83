package lagraph

import (
	"lagraph/internal/grb"
	"lagraph/internal/obs"
)

// Betweenness centrality (§V, [2]) in the batched Brandes formulation of
// the Combinatorial BLAS / LAGraph: a batch of sources is one ns×n frontier
// matrix, so every wavefront and every dependency accumulation is a masked
// matrix-matrix multiply, which grb takes in the cheaper of its two
// directions level by level (DESIGN.md, "A masked mxm takes the cheaper
// direction"), as LAGraph's later BC chooses push or pull per level.
//
// The forward sweep hands grb `frontier ⊕.⊗ A` under ¬paths, the backward
// sweep `w ⊕.⊗ Aᵀ` under levels[d-1]; both column views are g.A's one
// cached CSC. A backward level reads its two wavefronts, levels[d] and
// levels[d-1], and the dependencies dl the level below it found — never
// paths or the accumulated delta: each (s,i) lies on one level, and
// levels[d] holds paths on its own pattern. The column sum folds row s of
// delta into bc for ascending s, which is the order a column reduce folds
// each column in (from its first entry down), so it gives the reduce's
// bits without transposing delta.

// BetweennessCentrality computes the (unnormalized, directed-pair) BC
// contribution of the given batch of source vertices. Passing every
// vertex as a source yields exact betweenness. The context of WithContext
// is checked before every level of both sweeps, and an observer receives
// one "bc" IterRecord per level of each: the depth, the wavefront's entry
// count and the direction grb took.
func BetweennessCentrality(g *Graph, sources []int, opts ...Option) (_ *grb.Vector[float64], err error) {
	defer catch(&err)
	cfg := newOptions(opts)
	lp := cfg.loop("bc")
	n, ns := g.N(), len(sources)
	if ns == 0 {
		return grb.MustVector[float64](n), nil
	}
	for _, s := range sources {
		if s < 0 || s >= n {
			return nil, ErrBadArgument
		}
	}

	plusFirst := grb.PlusFirst[float64]()
	_, levels, err := bcForward(g, sources, plusFirst, opts...)
	try(err)

	// delta(s,i) is the dependency of i on s's shortest-path DAG.
	delta, dl := grb.MustMatrix[float64](ns, n), grb.MustMatrix[float64](ns, n)
	depDiv := func(d, sigma float64) float64 { return (1 + d) / sigma }
	dT1R := &grb.Descriptor{TranB: true, Replace: true}
	for d := len(levels) - 1; d >= 1; d-- {
		try(lp.next())
		// w = (1 + dl) ./ levels[d], a vertex with no dependency standing at 0.
		w, t := grb.MustMatrix[float64](ns, n), grb.MustMatrix[float64](ns, n)
		try(grb.EWiseUnionMatrix[float64, bool](w, nil, nil, depDiv, dl, 0, levels[d], 1, nil))
		rec := obs.IterRecord{Iter: d}
		if lp.traced() {
			rec.Frontier, rec.Dir = w.Nvals(), dirString(grb.MxMDirection(levels[d-1], w, g.A, dT1R))
		}
		// t⟨levels[d-1],replace⟩ = w ⊕.⊗ Aᵀ; dl = t ⊗ levels[d-1]; delta += dl.
		try(grb.MxM(t, levels[d-1], nil, plusFirst, w, g.A, dT1R))
		dl = grb.MustMatrix[float64](ns, n)
		try(grb.EWiseMultMatrix[float64, float64, float64, bool](dl, nil, nil, grb.Times[float64](), t, levels[d-1], nil))
		try(grb.AssignMatrix[float64, bool](delta, nil, grb.Plus[float64](), dl, grb.All, grb.All, nil))
		lp.done(rec)
	}

	// bc(i) = Σ_s delta(s,i), less each source's own entries: summed in
	// ascending s and taken off in one write, whatever form bc is held in
	// (an absent entry reads 0, which takes nothing off).
	bc, own := grb.MustVector[float64](n), grb.MustVector[float64](n)
	for s, src := range sources {
		try(grb.ExtractMatrixCol[float64, bool](bc, nil, grb.Plus[float64](), delta, nil, s, grb.DescT0))
		v, _ := delta.GetElement(s, src)
		_ = own.MergeElement(src, v, grb.Plus[float64]())
	}
	try(grb.AssignVector[float64, bool](bc, nil, grb.Minus[float64](), own, grb.All, nil))
	// Drop explicit zeros for a clean result.
	out := grb.MustVector[float64](n)
	try(grb.SelectVector[float64, bool](out, nil, nil, grb.ValueNE(0.0), bc, nil))
	return out, nil
}

// bcForward is the forward sweep: a batched BFS from every source that
// counts shortest paths. paths(s,i) is the number of shortest paths from
// sources[s] to i; levels[d] holds the depth-d wavefront (the paths
// discovered at that depth). It folds the caller's options itself: the
// lattice tests run it alone.
func bcForward(g *Graph, sources []int, plusFirst grb.Semiring[float64, float64, float64], opts ...Option) (_ *grb.Matrix[float64], _ []*grb.Matrix[float64], err error) {
	defer catch(&err)
	cfg := newOptions(opts)
	lp := cfg.loop("bc")
	ns, n := len(sources), g.N()
	paths, frontier := grb.MustMatrix[float64](ns, n), grb.MustMatrix[float64](ns, n)
	for s, src := range sources {
		_ = paths.SetElement(s, src, 1)
		_ = frontier.SetElement(s, src, 1)
	}
	levels := []*grb.Matrix[float64]{frontier}
	for {
		try(lp.next())
		// next⟨¬paths,replace⟩ = frontier ⊕.⊗ A
		next := grb.MustMatrix[float64](ns, n)
		rec := obs.IterRecord{Iter: len(levels)}
		if lp.traced() {
			rec.Frontier, rec.Dir = frontier.Nvals(), dirString(grb.MxMDirection(paths, frontier, g.A, grb.DescRC))
		}
		try(grb.MxM(next, paths, nil, plusFirst, frontier, g.A, grb.DescRC))
		if next.Nvals() == 0 {
			lp.done(rec)
			return paths, levels, nil
		}
		// paths += next
		try(grb.AssignMatrix[float64, bool](paths, nil, grb.Plus[float64](), next, grb.All, grb.All, nil))
		lp.done(rec)
		frontier = next
		levels = append(levels, frontier)
	}
}
