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
//     control and per-iteration statistics;
//   - direction-optimizing traversal (push–pull) following Beamer et al.
//     as realised in GraphBLAST (§II-E), driven by the frontier density.

// BFSStats records per-iteration traversal decisions for the
// direction-optimization experiments (reproduction of §II-E).
type BFSStats struct {
	// FrontierSizes holds nvals(frontier) at the start of each iteration.
	FrontierSizes []int
	// Directions holds the direction used in each iteration.
	Directions []grb.Direction
	// Depth is the number of BFS levels discovered (eccentricity+1 of the
	// source within its component).
	Depth int
}

// BFSLevelSimple is the level BFS of Fig. 2, Go flavour. levels(i)
// receives the 1-based BFS depth of vertex i; unreached vertices hold no
// entry.
//
//	depth ← 0
//	while nvals(frontier) > 0:
//	    depth ← depth+1
//	    levels[frontier] ← depth
//	    frontier⟨¬levels,replace⟩ ← frontierᵀ ⊕.⊗ graph  (LogicalSemiring)
func BFSLevelSimple(g *Graph, src int) (*grb.Vector[int32], error) {
	if err := g.checkSource(src); err != nil {
		return nil, err
	}
	n := g.N()
	levels := grb.MustVector[int32](n)
	frontier := grb.MustVector[bool](n)
	_ = frontier.SetElement(src, true)
	logical := grb.Semiring[bool, float64, bool]{Add: grb.LOrMonoid(), Mul: grb.First[bool, float64]()}
	depth := int32(0)
	for frontier.Nvals() > 0 {
		depth++
		if err := grb.AssignVectorScalar(levels, frontier, nil, depth, grb.All, nil); err != nil {
			return nil, err
		}
		if err := grb.VxM(frontier, levels, nil, logical, frontier, g.A, grb.DescRSC); err != nil {
			return nil, err
		}
	}
	return levels, nil
}

// BFSLevels computes 0-based BFS levels with direction-optimized
// traversal. Unreached vertices hold no entry.
func BFSLevels(g *Graph, src int, opts ...Option) (*grb.Vector[int32], error) {
	if err := g.checkSource(src); err != nil {
		return nil, err
	}
	cfg := newOptions(opts)
	ob := cfg.observer()
	n := g.N()
	levels := grb.MustVector[int32](n)
	frontier := grb.MustVector[bool](n)
	_ = frontier.SetElement(src, true)
	logical := grb.Semiring[bool, float64, bool]{Add: grb.LOrMonoid(), Mul: grb.First[bool, float64]()}
	depth := int32(0)
	for {
		if err := cfg.canceled(); err != nil {
			return nil, err
		}
		nf := frontier.Nvals()
		if nf == 0 {
			break
		}
		var t0 int64
		if ob != nil {
			t0 = ob.Now()
		}
		if err := grb.AssignVectorScalar(levels, frontier, nil, depth, grb.All, nil); err != nil {
			return nil, err
		}
		d := &grb.Descriptor{Replace: true, Comp: true, Dir: cfg.Dir}
		var dir grb.Direction // asked for only when someone records it
		if ob != nil || cfg.Stats != nil {
			dir = grb.VxMDirection(levels, frontier, g.A, d)
		}
		if cfg.Stats != nil {
			cfg.Stats.FrontierSizes = append(cfg.Stats.FrontierSizes, nf)
			cfg.Stats.Directions = append(cfg.Stats.Directions, dir)
		}
		if err := grb.VxM(frontier, levels, nil, logical, frontier, g.A, d); err != nil {
			return nil, err
		}
		depth++
		if ob != nil {
			ob.Iter(obs.IterRecord{
				Algo: "bfs", Iter: int(depth),
				Frontier: nf, Dir: dirString(dir),
				DurNanos: ob.Now() - t0,
			})
		}
	}
	if cfg.Stats != nil {
		cfg.Stats.Depth = int(depth)
	}
	return levels, nil
}

// BFSParents computes the BFS parent vector: parents(i) is the vertex
// from which i was first reached; the source is its own parent. It uses
// the (any, first) semiring over frontier values that carry vertex ids —
// the early-exit ANY monoid makes every pull dot product stop at the
// first hit (§II-A).
func BFSParents(g *Graph, src int, opts ...Option) (*grb.Vector[int64], error) {
	if err := g.checkSource(src); err != nil {
		return nil, err
	}
	cfg := newOptions(opts)
	ob := cfg.observer()
	n := g.N()
	parents := grb.MustVector[int64](n)
	_ = parents.SetElement(src, int64(src))
	frontier := grb.MustVector[int64](n)
	_ = frontier.SetElement(src, int64(src))
	// w(j) = any_{i in frontier} frontier(i): carries a parent id.
	anyFirst := grb.Semiring[int64, float64, int64]{Add: grb.AnyMonoid[int64](), Mul: grb.First[int64, float64]()}
	iter := 0
	for {
		if err := cfg.canceled(); err != nil {
			return nil, err
		}
		nf := frontier.Nvals()
		if nf == 0 {
			break
		}
		iter++
		var t0 int64
		if ob != nil {
			t0 = ob.Now()
		}
		// frontier⟨¬parents,replace⟩ = frontier ⊕.⊗ A
		d := &grb.Descriptor{Replace: true, Comp: true, Dir: cfg.Dir}
		var dir grb.Direction
		if ob != nil {
			dir = grb.VxMDirection(parents, frontier, g.A, d)
		}
		if err := grb.VxM(frontier, parents, nil, anyFirst, frontier, g.A, d); err != nil {
			return nil, err
		}
		// parents⟨frontier⟩ = frontier (the discovered parent ids).
		if err := grb.AssignVector(parents, frontier, nil, frontier, grb.All, nil); err != nil {
			return nil, err
		}
		// Reload the frontier with its own vertex ids for the next hop.
		if err := grb.ApplyIndexVector[int64, int64, bool](frontier, nil, nil,
			func(_ int64, i, _ int) int64 { return int64(i) }, frontier, nil); err != nil {
			return nil, err
		}
		if ob != nil {
			ob.Iter(obs.IterRecord{
				Algo: "bfs-parents", Iter: iter,
				Frontier: nf, Dir: dirString(dir),
				DurNanos: ob.Now() - t0,
			})
		}
	}
	return parents, nil
}

// BFSBoth returns levels and parents in one traversal.
func BFSBoth(g *Graph, src int, opts ...Option) (*grb.Vector[int32], *grb.Vector[int64], error) {
	if err := g.checkSource(src); err != nil {
		return nil, nil, err
	}
	cfg := newOptions(opts)
	ob := cfg.observer()
	n := g.N()
	levels := grb.MustVector[int32](n)
	parents := grb.MustVector[int64](n)
	_ = parents.SetElement(src, int64(src))
	frontier := grb.MustVector[int64](n)
	_ = frontier.SetElement(src, int64(src))
	anyFirst := grb.Semiring[int64, float64, int64]{Add: grb.AnyMonoid[int64](), Mul: grb.First[int64, float64]()}
	depth := int32(0)
	for {
		if err := cfg.canceled(); err != nil {
			return nil, nil, err
		}
		nf := frontier.Nvals()
		if nf == 0 {
			break
		}
		var t0 int64
		if ob != nil {
			t0 = ob.Now()
		}
		if err := grb.AssignVectorScalar(levels, frontier, nil, depth, grb.All, nil); err != nil {
			return nil, nil, err
		}
		d := &grb.Descriptor{Replace: true, Comp: true, Dir: cfg.Dir}
		var dir grb.Direction
		if ob != nil {
			dir = grb.VxMDirection(parents, frontier, g.A, d)
		}
		if err := grb.VxM(frontier, parents, nil, anyFirst, frontier, g.A, d); err != nil {
			return nil, nil, err
		}
		if err := grb.AssignVector(parents, frontier, nil, frontier, grb.All, nil); err != nil {
			return nil, nil, err
		}
		if err := grb.ApplyIndexVector[int64, int64, bool](frontier, nil, nil,
			func(_ int64, i, _ int) int64 { return int64(i) }, frontier, nil); err != nil {
			return nil, nil, err
		}
		depth++
		if ob != nil {
			ob.Iter(obs.IterRecord{
				Algo: "bfs", Iter: int(depth),
				Frontier: nf, Dir: dirString(dir),
				DurNanos: ob.Now() - t0,
			})
		}
	}
	return levels, parents, nil
}
