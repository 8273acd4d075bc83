package lagraph

import "lagraph/internal/grb"

// Shortest-path tree reconstruction: given the distance vector from an
// SSSP run, recover a parent vector such that following parents from any
// reached vertex walks a shortest path back to the source. The
// reconstruction is one pass over the edges through the GraphBLAS
// iterator — no second relaxation loop.

// ShortestPathTree returns parents(v) = u for some edge u→v with
// dist(u) + w(u,v) = dist(v); the source is its own parent. The smallest
// qualifying u is chosen, making the result deterministic.
func ShortestPathTree(g *Graph, src int, dist *grb.Vector[float64]) (_ *grb.Vector[int64], err error) {
	defer catch(&err)
	try(g.checkSource(src))
	if dist == nil {
		return nil, grb.ErrUninitialized
	}
	n := g.N()
	parents := grb.MustVector[int64](n)
	_ = parents.SetElement(src, int64(src))
	dd, dok := make([]float64, n), make([]bool, n)
	dist.Iterate(func(i int, x float64) bool {
		dd[i], dok[i] = x, true
		return true
	})
	minOp := grb.MinOp[int64]()
	g.A.Iterate(func(u, v int, w float64) bool {
		if v != src && dok[u] && dok[v] && dd[u]+w == dd[v] {
			_ = parents.MergeElement(v, int64(u), minOp)
		}
		return true
	})
	parents.Wait()
	return parents, nil
}

// PathTo walks the parent vector from dst back to the source and returns
// the path source→dst, or ok=false if dst has no parent entry.
func PathTo(parents *grb.Vector[int64], dst int) (path []int, ok bool) {
	v := dst
	for {
		p, err := parents.GetElement(v)
		if err != nil {
			return nil, false
		}
		path = append(path, v)
		if int(p) == v {
			break
		}
		v = int(p)
		if len(path) > parents.Size() {
			return nil, false // cycle guard
		}
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, true
}
