package lagraph

import (
	"sort"

	"lagraph/internal/grb"
)

// Local graph clustering — the third algorithm of Table II of the paper
// (Ligra 84 lines, GraphBLAST 45, GraphIt not implemented). This is the
// PR-Nibble method of Andersen, Chung and Lang: compute an approximate
// personalized PageRank vector around a seed by push iterations expressed
// as vector operations, then sweep by conductance.

// LocalClusterResult carries the cluster and its quality.
type LocalClusterResult struct {
	// Members lists the cluster's vertices.
	Members []int
	// Conductance is the cut quality of the returned sweep prefix.
	Conductance float64
	// PPR is the approximate personalized PageRank vector.
	PPR *grb.Vector[float64]
}

// LocalCluster finds a low-conductance cluster around seed. alpha is the
// teleport probability (typically 0.15) and eps the approximation
// threshold (smaller = larger clusters; typically 1e-4).
func LocalCluster(g *Graph, seed int, alpha, eps float64) (_ *LocalClusterResult, err error) {
	defer catch(&err)
	try(g.checkSource(seed))
	if alpha <= 0 || alpha >= 1 || eps <= 0 {
		return nil, ErrBadArgument
	}
	n := g.N()
	deg := g.OutDegree()
	degOf := func(i int) float64 {
		d, err := deg.GetElement(i)
		if err != nil || d == 0 {
			return 1
		}
		return float64(d)
	}

	p := grb.MustVector[float64](n) // approximate PPR
	r := grb.MustVector[float64](n) // residual
	_ = r.SetElement(seed, 1)

	for iter := 0; iter < 100*n+1000; iter++ {
		// active: vertices with r(i) >= eps*deg(i).
		active := grb.MustVector[float64](n)
		try(grb.SelectVector[float64, bool](active, nil, nil,
			func(x float64, i, _ int) bool { return x >= eps*degOf(i) }, r, nil))
		if active.Nvals() == 0 {
			break
		}
		// p += alpha * r_active
		scaledActive := grb.MustVector[float64](n)
		try(grb.ApplyVector[float64, float64, bool](scaledActive, nil, nil,
			func(x float64) float64 { return alpha * x }, active, nil))
		try(grb.EWiseAddVector[float64, bool](p, nil, nil, grb.Plus[float64](), p, scaledActive, nil))
		// push mass: half of (1-alpha)·r stays, half spreads along edges
		// (the lazy walk of ACL). spread(i) = (1-alpha)*r(i)/2/deg(i).
		spread := grb.MustVector[float64](n)
		try(grb.ApplyIndexVector(spread, (*grb.Vector[bool])(nil), nil,
			func(x float64, i, _ int) float64 { return (1 - alpha) * x / 2 / degOf(i) }, active, nil))
		// r_active ← (1-alpha)*r/2 ; then r += spreadᵀ·A.
		keep := grb.MustVector[float64](n)
		try(grb.ApplyVector[float64, float64, bool](keep, nil, nil,
			func(x float64) float64 { return (1 - alpha) * x / 2 }, active, nil))
		// Replace the active entries of r with 'keep'.
		try(grb.AssignVector(r, active, nil, keep, grb.All, nil))
		// r += spread ⊕.⊗ A: weight-agnostic propagation uses the degree
		// fraction carried in 'spread', so multiply selects the spread
		// value (first).
		plusFirst := grb.Semiring[float64, float64, float64]{Add: grb.PlusMonoid[float64](), Mul: grb.First[float64, float64]()}
		try(grb.VxM(r, (*grb.Vector[bool])(nil), grb.Plus[float64](), plusFirst, spread, g.A, nil))
	}

	// Sweep cut: order vertices by p(i)/deg(i) and take the prefix of
	// minimum conductance.
	pi, px := p.ExtractTuples()
	type cand struct {
		v     int
		score float64
	}
	cands := make([]cand, len(pi))
	for k := range pi {
		cands[k] = cand{pi[k], px[k] / degOf(pi[k])}
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].score > cands[b].score })

	totalVol := float64(g.NEdges())
	inSet := make(map[int]bool, len(cands))
	vol, cut := 0.0, 0.0
	bestCond, bestK := 2.0, 0
	for k, c := range cands {
		d := degOf(c.v)
		vol += d
		// Edges to vertices already in the set reduce the cut; others
		// increase it.
		row := grb.MustVector[float64](n)
		try(grb.ExtractMatrixCol(row, (*grb.Vector[bool])(nil), nil, g.A, grb.All, c.v, grb.DescT0))
		ri, _ := row.ExtractTuples()
		for _, u := range ri {
			if inSet[u] {
				cut--
			} else {
				cut++
			}
		}
		inSet[c.v] = true
		denom := vol
		if other := totalVol - vol; other < denom {
			denom = other
		}
		if denom > 0 && k+1 < g.N() {
			cond := cut / denom
			if cond < bestCond {
				bestCond, bestK = cond, k+1
			}
		}
	}
	members := make([]int, bestK)
	for k := 0; k < bestK; k++ {
		members[k] = cands[k].v
	}
	sort.Ints(members)
	return &LocalClusterResult{Members: members, Conductance: bestCond, PPR: p}, nil
}
