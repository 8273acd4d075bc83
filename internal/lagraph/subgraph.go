package lagraph

import "lagraph/internal/grb"

// Per-vertex subgraph counting (§V, [41], Chen et al.): counts of small
// motifs — wedges and triangles — per vertex, plus the local clustering
// coefficient derived from them. All counts come from one masked
// matrix-multiply and degree arithmetic.

// SubgraphCounts holds per-vertex motif counts.
type SubgraphCounts struct {
	// Triangles(i): triangles through vertex i.
	Triangles *grb.Vector[int64]
	// Wedges(i): paths of length two centred at i, deg·(deg-1)/2.
	Wedges *grb.Vector[int64]
	// TotalTriangles is the whole-graph triangle count.
	TotalTriangles int64
	// TotalWedges is the whole-graph wedge count.
	TotalWedges int64
}

// CountSubgraphs computes per-vertex wedge and triangle counts on an
// undirected graph.
func CountSubgraphs(g *Graph) (_ *SubgraphCounts, err error) {
	defer catch(&err)
	try(g.requireUndirected())
	a := g.patternInt64()
	n := a.Nrows()
	offDiag := grb.MustMatrix[int64](n, n)
	try(grb.SelectMatrix[int64, bool](offDiag, nil, nil, grb.OffDiag[int64](), a, nil))
	a = offDiag

	// C⟨A⟩ = A·A (plus.pair): C(i,j) = common neighbours of i and j for
	// each edge (i,j). Row sums give 2·triangles(i).
	c := grb.MustMatrix[int64](n, n)
	try(grb.MxM(c, a, nil, grb.PlusPair[int64, int64, int64](), a, a, nil))
	rowSum := grb.MustVector[int64](n)
	try(grb.ReduceMatrixToVector[int64, bool](rowSum, nil, nil, grb.PlusMonoid[int64](), c, nil))
	tri := grb.MustVector[int64](n)
	try(grb.ApplyVector[int64, int64, bool](tri, nil, nil,
		func(x int64) int64 { return x / 2 }, rowSum, nil))
	// Drop explicit zeros (vertices on no triangle).
	try(grb.SelectVector[int64, bool](tri, nil, nil, grb.ValueNE(int64(0)), tri, grb.DescR))

	// Wedges from degrees: a holds only ones, so its row sums are them.
	deg := grb.MustVector[int64](n)
	try(grb.ReduceMatrixToVector[int64, bool](deg, nil, nil, grb.PlusMonoid[int64](), a, nil))
	wedges := grb.MustVector[int64](n)
	try(grb.ApplyVector[int64, int64, bool](wedges, nil, nil,
		func(d int64) int64 { return d * (d - 1) / 2 }, deg, nil))
	try(grb.SelectVector[int64, bool](wedges, nil, nil, grb.ValueNE(int64(0)), wedges, grb.DescR))

	totTri, err := grb.ReduceVectorToScalar(grb.PlusMonoid[int64](), tri)
	try(err)
	totW, err := grb.ReduceVectorToScalar(grb.PlusMonoid[int64](), wedges)
	try(err)
	return &SubgraphCounts{
		Triangles:      tri,
		Wedges:         wedges,
		TotalTriangles: totTri / 3,
		TotalWedges:    totW,
	}, nil
}

// ClusteringCoefficient returns the per-vertex local clustering
// coefficient triangles(i)/wedges(i) and the global transitivity
// 3·triangles/wedges.
func ClusteringCoefficient(g *Graph) (_ *grb.Vector[float64], _ float64, err error) {
	defer catch(&err)
	sc, err := CountSubgraphs(g)
	try(err)
	n := g.N()
	cc := grb.MustVector[float64](n)
	try(grb.EWiseMultVector[int64, int64, float64, bool](cc, nil, nil,
		func(t, w int64) float64 {
			if w == 0 {
				return 0
			}
			return float64(t) / float64(w)
		}, sc.Triangles, sc.Wedges, nil))
	global := 0.0
	if sc.TotalWedges > 0 {
		global = 3 * float64(sc.TotalTriangles) / float64(sc.TotalWedges)
	}
	return cc, global, nil
}
