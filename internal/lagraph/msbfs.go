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
func MSBFSLevels(g *Graph, sources []int, opts ...Option) (*grb.Matrix[int32], error) {
	cfg := newOptions(opts)
	ob := cfg.observer()
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
	logical := grb.Semiring[bool, float64, bool]{Add: grb.LOrMonoid(), Mul: grb.First[bool, float64]()}
	depth := int32(0)
	for frontier.Nvals() > 0 {
		if err := cfg.canceled(); err != nil {
			return nil, err
		}
		// levels⟨frontier⟩ = depth
		if err := grb.AssignMatrixScalar(levels, frontier, nil, depth, grb.All, grb.All, nil); err != nil {
			return nil, err
		}
		// frontier⟨¬levels,replace⟩ = frontier ⊕.⊗ A
		next := grb.MustMatrix[bool](ns, n)
		depth++
		if err := batchStep(ob, "msbfs", int(depth), next, levels, logical, frontier, g.A, grb.DescRC); err != nil {
			return nil, err
		}
		frontier = next
	}
	return levels, nil
}

// batchStep is one level of a batched traversal: c⟨mask⟩ = front ⊕.⊗ A
// under desc, the direction left to grb. With an observer it emits the
// level's IterRecord, asking grb which direction the step takes before
// taking it (the choice is a function of the operands alone).
func batchStep[T, M any](ob obs.Observer, algo string, depth int, c *grb.Matrix[T], mask *grb.Matrix[M], s grb.Semiring[T, float64, T], front *grb.Matrix[T], a *grb.Matrix[float64], desc *grb.Descriptor) error {
	if ob == nil {
		return grb.MxM(c, mask, nil, s, front, a, desc)
	}
	rec := obs.IterRecord{
		Algo: algo, Iter: depth, Frontier: front.Nvals(),
		Dir: dirString(grb.MxMDirection(mask, front, a, desc)),
	}
	t0 := ob.Now()
	if err := grb.MxM(c, mask, nil, s, front, a, desc); err != nil {
		return err
	}
	rec.DurNanos = ob.Now() - t0
	ob.Iter(rec)
	return nil
}

// ReachabilityCount returns, for each source in the batch, how many
// vertices its BFS reaches (including itself).
func ReachabilityCount(g *Graph, sources []int) ([]int, error) {
	levels, err := MSBFSLevels(g, sources)
	if err != nil {
		return nil, err
	}
	counts := make([]int, len(sources))
	is, _, _ := levels.ExtractTuples()
	for _, s := range is {
		counts[s]++
	}
	return counts, nil
}
