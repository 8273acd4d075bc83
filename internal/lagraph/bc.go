package lagraph

import (
	"lagraph/internal/grb"
	"lagraph/internal/obs"
)

// Betweenness centrality (§V, [2]) in the batched Brandes formulation of
// the Combinatorial BLAS / LAGraph: a batch of sources is processed as
// one ns×n frontier matrix, so every BFS wavefront and every dependency
// accumulation is a masked matrix-matrix multiply — and grb takes each in
// the cheaper of its two directions (DESIGN.md, "A masked mxm takes the
// cheaper direction"), level by level, as LAGraph's later BC chooses push
// or pull per level.
//
// The forward sweep hands grb `frontier ⊕.⊗ A` under ¬paths: a push
// scatters the rows of A the frontier selects (g.A's own storage), a pull
// walks the columns of A the mask still admits. The backward sweep hands
// it `w ⊕.⊗ Aᵀ` under levels[d-1]: a pull walks rows of A, a push scatters
// columns of A. Both column views are g.A's one cached CSC — the view a
// direction-optimized BFS's pull step builds — so neither sweep transposes
// anything of its own.

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
	n := g.N()
	ns := len(sources)
	if ns == 0 {
		return grb.MustVector[float64](n), nil
	}
	for _, s := range sources {
		if s < 0 || s >= n {
			return nil, ErrBadArgument
		}
	}

	plusFirst := grb.PlusFirst[float64]()
	paths, levels, err := bcForward(g, sources, plusFirst, opts...)
	try(err)

	// Backward sweep: delta(s,i) accumulates the dependency of i on s's
	// shortest-path DAG.
	delta := grb.MustMatrix[float64](ns, n)
	depDiv := func(d, sigma float64) float64 { return (1 + d) / sigma }
	dT1R := &grb.Descriptor{TranB: true, Replace: true}
	for d := len(levels) - 1; d >= 1; d-- {
		try(lp.next())
		// w⟨levels[d],replace⟩ = (1 + delta) ./ paths, a vertex with no
		// dependency yet standing at delta = 0.
		w := grb.MustMatrix[float64](ns, n)
		try(grb.EWiseUnionMatrix(w, levels[d], nil, depDiv, delta, 0, paths, 1, grb.DescR))
		// t⟨levels[d-1],replace⟩ = w ⊕.⊗ Aᵀ
		t := grb.MustMatrix[float64](ns, n)
		rec := obs.IterRecord{Iter: d}
		if lp.traced() {
			rec.Frontier, rec.Dir = w.Nvals(), dirString(grb.MxMDirection(levels[d-1], w, g.A, dT1R))
		}
		try(grb.MxM(t, levels[d-1], nil, plusFirst, w, g.A, dT1R))
		// delta⟨levels[d-1]⟩ += t ⊗ paths
		try(grb.EWiseMultMatrix(delta, levels[d-1], grb.Plus[float64](), grb.Times[float64](), t, paths, nil))
		lp.done(rec)
	}

	// bc(i) = Σ_s delta(s,i), excluding each source's own row entry.
	bc := grb.MustVector[float64](n)
	try(grb.ReduceMatrixToVector[float64, bool](bc, nil, nil, grb.PlusMonoid[float64](), delta, grb.DescT0))
	for s, src := range sources {
		if v, err := delta.GetElement(s, src); err == nil && v != 0 {
			_ = bc.MergeElement(src, -v, grb.Plus[float64]())
		}
	}
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
