package lagraph

import (
	"lagraph/internal/grb"
	"lagraph/internal/obs"
)

// Multi-source BFS: a batch of traversals carried as one ns×n frontier
// matrix, the building block of batched betweenness centrality and
// all-pairs reachability studies (Buluç–Madduri [31] generalized). Each
// iteration is a single masked mxm — the formulation's entire point — and
// grb takes it in the cheaper of its two directions: a push scatters the
// rows of A the frontier selects, a pull walks the columns of A (g.A's
// cached CSC) the ¬levels mask still admits.

// MSBFSLevels runs BFS from every source simultaneously and returns the
// ns×n level matrix: levels(s,v) is the 0-based depth of v from
// sources[s]; unreached pairs hold no entry. The context of WithContext is
// checked before every level, and an observer receives one "msbfs"
// IterRecord per level.
func MSBFSLevels(g *Graph, sources []int, opts ...Option) (_ *grb.Matrix[int32], err error) {
	defer catch(&err)
	cfg := newOptions(opts)
	lp := cfg.loop("msbfs")
	n := g.N()
	ns := len(sources)
	if ns == 0 {
		return grb.MustMatrix[int32](0, n), nil
	}
	for _, s := range sources {
		if s < 0 || s >= n {
			return nil, ErrBadArgument
		}
	}
	levels := grb.MustMatrix[int32](ns, n)
	frontier := grb.MustMatrix[bool](ns, n)
	for s, src := range sources {
		_ = frontier.SetElement(s, src, true)
	}
	logical := grb.LOrFirst[float64]()
	for depth := int32(0); frontier.Nvals() > 0; depth++ {
		try(lp.next())
		// levels⟨frontier⟩ = depth
		try(grb.AssignMatrixScalar(levels, frontier, nil, depth, grb.All, grb.All, nil))
		// frontier⟨¬levels,replace⟩ = frontier ⊕.⊗ A, in the direction
		// grb chooses from the operands alone, so a trace can ask first.
		next := grb.MustMatrix[bool](ns, n)
		rec := obs.IterRecord{Iter: int(depth) + 1}
		if lp.traced() {
			rec.Frontier, rec.Dir = frontier.Nvals(), dirString(grb.MxMDirection(levels, frontier, g.A, grb.DescRC))
		}
		try(grb.MxM(next, levels, nil, logical, frontier, g.A, grb.DescRC))
		lp.done(rec)
		frontier = next
	}
	return levels, nil
}

// ReachabilityCount returns, for each source in the batch, how many
// vertices its BFS reaches (including itself).
func ReachabilityCount(g *Graph, sources []int) (_ []int, err error) {
	defer catch(&err)
	levels, err := MSBFSLevels(g, sources)
	try(err)
	counts := make([]int, len(sources))
	is, _, _ := levels.ExtractTuples()
	for _, s := range is {
		counts[s]++
	}
	return counts, nil
}
