package lagraph

import (
	"math"

	"lagraph/internal/grb"
)

// Clustering algorithms in the spirit-of-GraphBLAS list of §V: Markov
// clustering (HipMCL, [45]) and peer-pressure clustering (Gilbert,
// Reinhardt, Shah, [46]).

// MarkovClustering runs MCL on an undirected graph: alternate expansion
// (matrix squaring over (+,×)), inflation (element-wise power followed by
// column normalization) and pruning, until the matrix reaches a fixed
// point; clusters are the components of the attractor matrix.
func MarkovClustering(g *Graph, inflation float64, prune float64, maxIter int) (_ *grb.Vector[int64], err error) {
	defer catch(&err)
	try(g.requireUndirected())
	if inflation <= 1 || maxIter <= 0 {
		return nil, ErrBadArgument
	}
	n := g.N()

	// M ← A + I, column-normalized.
	m := g.A.Dup()
	for i := 0; i < n; i++ {
		try(m.SetElement(i, i, 1))
	}
	try(normalizeColumns(m))

	plusTimes := grb.PlusTimes[float64]()
	for iter := 0; iter < maxIter; iter++ {
		prev, err := grb.ReduceMatrixToScalar(grb.PlusMonoid[float64](), squares(m))
		try(err)
		// Expansion: M ← M².
		m2 := grb.MustMatrix[float64](n, n)
		try(grb.MxM(m2, (*grb.Matrix[bool])(nil), nil, plusTimes, m, m, nil))
		// Inflation: element-wise power, then column normalization.
		try(grb.ApplyMatrix[float64, float64, bool](m2, nil, nil,
			func(x float64) float64 { return math.Pow(x, inflation) }, m2, nil))
		// Pruning of tiny entries keeps the iteration sparse.
		if prune > 0 {
			try(grb.SelectMatrix[float64, bool](m2, nil, nil, grb.ValueGT(prune), m2, grb.DescR))
		}
		try(normalizeColumns(m2))
		m = m2
		cur, err := grb.ReduceMatrixToScalar(grb.PlusMonoid[float64](), squares(m))
		try(err)
		if math.Abs(cur-prev) < 1e-9 {
			break
		}
	}

	// Clusters: attractors are rows with entries; assign each column to
	// the smallest row that attracts it (connected components of the
	// attractor pattern handles overlapping attractors).
	gm, err := NewGraph(symmetrized(m), Undirected)
	try(err)
	return ConnectedComponentsFastSV(gm)
}

// squares returns the element-wise square of m (convergence metric).
func squares(m *grb.Matrix[float64]) *grb.Matrix[float64] {
	s := grb.MustMatrix[float64](m.Nrows(), m.Ncols())
	if err := grb.ApplyMatrix[float64, float64, bool](s, nil, nil,
		func(x float64) float64 { return x * x }, m, nil); err != nil {
		panic(err)
	}
	return s
}

// normalizeColumns scales every column of m to sum 1.
func normalizeColumns(m *grb.Matrix[float64]) (err error) {
	defer catch(&err)
	n := m.Ncols()
	colSum := grb.MustVector[float64](n)
	try(grb.ReduceMatrixToVector[float64, bool](colSum, nil, nil, grb.PlusMonoid[float64](), m, grb.DescT0))
	sums := colSum // captured
	return grb.ApplyIndexMatrix(m, (*grb.Matrix[bool])(nil), nil,
		func(x float64, _, j int) float64 {
			s, err := sums.GetElement(j)
			if err != nil || s == 0 {
				return x
			}
			return x / s
		}, m, nil)
}

// symmetrized returns the pattern union of m and mᵀ as a weighted matrix.
func symmetrized(m *grb.Matrix[float64]) *grb.Matrix[float64] {
	n := m.Nrows()
	s := grb.MustMatrix[float64](n, n)
	if err := grb.EWiseAddMatrix[float64, bool](s, nil, nil, grb.Plus[float64](), m, m, grb.DescT1); err != nil {
		panic(err)
	}
	return s
}

// PeerPressure clusters by iterative voting: each vertex adopts the
// cluster that the plurality of its in-neighbours belong to, with ties
// broken toward the smaller cluster id. Implemented as T = C ⊕.⊗ A over
// (+, second-as-one) followed by a column argmax.
func PeerPressure(g *Graph, maxIter int) (_ *grb.Vector[int64], err error) {
	defer catch(&err)
	n := g.N()
	if maxIter <= 0 {
		return nil, ErrBadArgument
	}
	// cluster(i) starts as i.
	cluster := make([]int64, n)
	for i := range cluster {
		cluster[i] = int64(i)
	}

	plusSecond := grb.PlusSecond[float64]()
	for iter := 0; iter < maxIter; iter++ {
		// C: cluster-indicator matrix, C(c,i)=1 if vertex i is in
		// cluster c.
		is := make([]int, n)
		js := make([]int, n)
		xs := make([]float64, n)
		for i := 0; i < n; i++ {
			is[i] = int(cluster[i])
			js[i] = i
			xs[i] = 1
		}
		c := grb.MustMatrix[float64](n, n)
		try(c.Build(is, js, xs, grb.Plus[float64]()))
		// T(c,j) = Σ_i C(c,i)·A(i,j): votes for cluster c at vertex j.
		t := grb.MustMatrix[float64](n, n)
		try(grb.MxM(t, (*grb.Matrix[bool])(nil), nil, plusSecond, c, g.A, nil))
		// Column argmax with ties to the smaller cluster id.
		next := make([]int64, n)
		copy(next, cluster)
		best := make([]float64, n)
		ti, tj, tx := t.ExtractTuples()
		for k := range ti {
			j := tj[k]
			switch {
			case tx[k] > best[j]:
				best[j] = tx[k]
				next[j] = int64(ti[k])
			case tx[k] == best[j] && int64(ti[k]) < next[j]:
				next[j] = int64(ti[k])
			}
		}
		same := true
		for i := range next {
			if next[i] != cluster[i] {
				same = false
				break
			}
		}
		cluster = next
		if same {
			break
		}
	}
	return grb.DenseVector(cluster), nil
}
