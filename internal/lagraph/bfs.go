package lagraph

import (
	"lagraph/internal/grb"
	"lagraph/internal/obs"
)

// Breadth-first search in the language of linear algebra (§V, and the
// worked example of Fig. 2 of the paper). Three formulations are
// provided:
//
//   - BFSLevelSimple: the level-synchronous loop of Fig. 2, transcribed
//     line by line;
//   - BFSLevels/BFSParents: the production form with explicit direction
//     control, whose per-iteration records name each step's frontier and
//     direction;
//   - direction-optimizing traversal (push–pull) following Beamer et al.
//     as realised in GraphBLAST (§II-E), driven by the frontier density.

// BFSLevelSimple is the level BFS of Fig. 2, Go flavour. levels(i)
// receives the 1-based BFS depth of vertex i; unreached vertices hold no
// entry.
//
//	depth ← 0
//	while nvals(frontier) > 0:
//	    depth ← depth+1
//	    levels[frontier] ← depth
//	    frontier⟨¬levels,replace⟩ ← frontierᵀ ⊕.⊗ graph  (LogicalSemiring)
func BFSLevelSimple(g *Graph, src int) (_ *grb.Vector[int32], err error) {
	defer catch(&err)
	try(g.checkSource(src))
	n := g.N()
	levels := grb.MustVector[int32](n)
	frontier := grb.MustVector[bool](n)
	_ = frontier.SetElement(src, true)
	logical := grb.Semiring[bool, float64, bool]{Add: grb.LOrMonoid(), Mul: grb.First[bool, float64]()}
	depth := int32(0)
	for frontier.Nvals() > 0 {
		depth++
		try(grb.AssignVectorScalar(levels, frontier, nil, depth, grb.All, nil))
		try(grb.VxM(frontier, levels, nil, logical, frontier, g.A, grb.DescRSC))
	}
	return levels, nil
}

// BFSLevels computes 0-based BFS levels with direction-optimized
// traversal. Unreached vertices hold no entry.
func BFSLevels(g *Graph, src int, opts ...Option) (_ *grb.Vector[int32], err error) {
	defer catch(&err)
	try(g.checkSource(src))
	cfg := newOptions(opts)
	lp := cfg.loop("bfs")
	n := g.N()
	levels := grb.MustVector[int32](n)
	frontier := grb.MustVector[bool](n)
	_ = frontier.SetElement(src, true)
	logical := grb.LOrFirst[float64]()
	depth := int32(0)
	for {
		try(lp.next())
		nf := frontier.Nvals()
		if nf == 0 {
			break
		}
		try(grb.AssignVectorScalar(levels, frontier, nil, depth, grb.All, nil))
		d := &grb.Descriptor{Replace: true, Comp: true, Dir: cfg.Dir}
		var dir grb.Direction // asked for only when someone records it
		if lp.traced() {
			dir = grb.VxMDirection(levels, frontier, g.A, d)
		}
		try(grb.VxM(frontier, levels, nil, logical, frontier, g.A, d))
		depth++
		lp.done(obs.IterRecord{Iter: int(depth), Frontier: nf, Dir: dirString(dir)})
	}
	return levels, nil
}

// BFSParents computes the BFS parent vector: parents(i) is the vertex
// from which i was first reached; the source is its own parent. It uses
// the (any, first) semiring over frontier values that carry vertex ids —
// the early-exit ANY monoid makes every pull dot product stop at the
// first hit (§II-A).
func BFSParents(g *Graph, src int, opts ...Option) (_ *grb.Vector[int64], err error) {
	defer catch(&err)
	try(g.checkSource(src))
	cfg := newOptions(opts)
	lp := cfg.loop("bfs-parents")
	n := g.N()
	parents := grb.MustVector[int64](n)
	_ = parents.SetElement(src, int64(src))
	frontier := grb.MustVector[int64](n)
	_ = frontier.SetElement(src, int64(src))
	// w(j) = any_{i in frontier} frontier(i): carries a parent id.
	anyFirst := grb.AnyFirstOf[int64, float64]()
	for iter := 1; ; iter++ {
		try(lp.next())
		nf := frontier.Nvals()
		if nf == 0 {
			break
		}
		// frontier⟨¬parents,replace⟩ = frontier ⊕.⊗ A
		d := &grb.Descriptor{Replace: true, Comp: true, Dir: cfg.Dir}
		var dir grb.Direction
		if lp.traced() {
			dir = grb.VxMDirection(parents, frontier, g.A, d)
		}
		try(grb.VxM(frontier, parents, nil, anyFirst, frontier, g.A, d))
		// parents⟨frontier⟩ = frontier (the discovered parent ids).
		try(grb.AssignVector(parents, frontier, nil, frontier, grb.All, nil))
		// Reload the frontier with its own vertex ids for the next hop.
		try(grb.ApplyIndexVector[int64, int64, bool](frontier, nil, nil,
			func(_ int64, i, _ int) int64 { return int64(i) }, frontier, nil))
		lp.done(obs.IterRecord{Iter: iter, Frontier: nf, Dir: dirString(dir)})
	}
	return parents, nil
}
