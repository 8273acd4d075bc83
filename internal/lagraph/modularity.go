package lagraph

import (
	"sort"

	"lagraph/internal/grb"
)

// Modularity of a clustering — the standard quality score
// Q = (1/2m) Σ_ij [A_ij − k_i·k_j / 2m] δ(c_i, c_j), used to evaluate the
// §V clustering algorithms. Expressed over the GraphBLAS: the positive
// term is a masked reduction of A over within-cluster edges, the
// expectation term a per-cluster degree-sum contraction.

// Modularity scores a cluster labeling of an undirected graph. Edge
// weights count as multiplicities.
func Modularity(g *Graph, labels *grb.Vector[int64]) (_ float64, err error) {
	defer catch(&err)
	try(g.requireUndirected())
	if labels == nil {
		return 0, grb.ErrUninitialized
	}
	if labels.Size() != g.N() {
		return 0, grb.ErrDimensionMismatch
	}
	twoM, err := grb.ReduceMatrixToScalar(grb.PlusMonoid[float64](), g.A)
	try(err)
	if twoM == 0 {
		return 0, nil
	}
	labelOf := make(map[int]int64, labels.Nvals())
	labels.Iterate(func(i int, c int64) bool {
		labelOf[i] = c
		return true
	})

	// Within-cluster edge weight.
	within := 0.0
	g.A.Iterate(func(i, j int, w float64) bool {
		ci, oki := labelOf[i]
		cj, okj := labelOf[j]
		if oki && okj && ci == cj {
			within += w
		}
		return true
	})

	// Per-cluster weighted degree sums.
	deg := grb.MustVector[float64](g.N())
	try(grb.ReduceMatrixToVector[float64, bool](deg, nil, nil, grb.PlusMonoid[float64](), g.A, nil))
	clusterDeg := map[int64]float64{}
	deg.Iterate(func(i int, d float64) bool {
		if c, ok := labelOf[i]; ok {
			clusterDeg[c] += d
		}
		return true
	})
	// Fold in sorted cluster order: float addition is not associative, so
	// summing in map order would change the last bits of Q from run to run.
	cids := make([]int64, 0, len(clusterDeg))
	for c := range clusterDeg {
		cids = append(cids, c)
	}
	sort.Slice(cids, func(a, b int) bool { return cids[a] < cids[b] })
	expect := 0.0
	for _, c := range cids {
		d := clusterDeg[c]
		expect += d * d
	}
	return within/twoM - expect/(twoM*twoM), nil
}
