package lagraph

import (
	"math/rand"

	"lagraph/internal/grb"
)

// Graph coloring (§V, [40]): independent-set based colouring in the
// Jones–Plassmann style — in each round, the uncoloured vertices whose
// random priority beats all uncoloured neighbours receive the current
// colour, exactly the formulation Osama et al. evaluate on GPUs.

// Coloring assigns a colour (1-based) to every vertex such that
// neighbours differ, and returns the colour vector and the number of
// colours used.
func Coloring(g *Graph, seed int64) (_ *grb.Vector[int32], _ int, err error) {
	defer catch(&err)
	try(g.requireUndirected())
	n := g.N()
	rng := rand.New(rand.NewSource(seed))

	// Fixed random priorities, tie-broken by vertex id.
	prio := make([]float64, n)
	for i := range prio {
		prio[i] = rng.Float64() + float64(i)*1e-12
	}
	prioVec := grb.DenseVector(prio)

	colour := grb.MustVector[int32](n)
	uncoloured := grb.MustVector[bool](n)
	for i := 0; i < n; i++ {
		_ = uncoloured.SetElement(i, true)
	}
	maxSecond := grb.Semiring[float64, float64, float64]{Add: grb.MaxMonoid[float64](), Mul: grb.Second[float64, float64]()}

	for c := int32(1); ; c++ {
		if uncoloured.Nvals() == 0 {
			return colour, int(c - 1), nil
		}
		if int(c) > n+1 {
			return nil, 0, ErrNoConvergence
		}
		// Priorities restricted to uncoloured vertices.
		p := grb.MustVector[float64](n)
		try(grb.ExtractVector(p, uncoloured, nil, prioVec, grb.All, nil))
		// nbMax(i) = max priority among uncoloured neighbours.
		nbMax := grb.MustVector[float64](n)
		try(grb.MxV(nbMax, uncoloured, nil, maxSecond, g.A, p, nil))
		// winners: uncoloured vertices beating all uncoloured neighbours.
		beats := grb.MustVector[bool](n)
		try(grb.EWiseMultVector[float64, float64, bool, bool](beats, nil, nil, grb.Gt[float64](), p, nbMax, nil))
		try(grb.SelectVector[bool, bool](beats, nil, nil, grb.ValueEQ(true), beats, nil))
		winners := grb.MustVector[bool](n)
		try(grb.ExtractVector(winners, nbMax, nil, uncoloured, grb.All, grb.DescC))
		try(grb.EWiseAddVector[bool, bool](winners, nil, nil, grb.LOr(), winners, beats, nil))
		if winners.Nvals() == 0 {
			// With distinct priorities some vertex always wins; guard
			// against pathological ties anyway.
			continue
		}
		// colour⟨winners⟩ = c; remove winners from the uncoloured pool.
		try(grb.AssignVectorScalar(colour, winners, nil, c, grb.All, nil))
		next := grb.MustVector[bool](n)
		try(grb.ExtractVector(next, winners, nil, uncoloured, grb.All, grb.DescC))
		uncoloured = next
	}
}

// VerifyColoring checks that adjacent vertices received different
// colours and every vertex is coloured.
func VerifyColoring(g *Graph, colour *grb.Vector[int32]) bool {
	if colour.Nvals() != g.N() {
		return false
	}
	// conflict(i,j) exists when A(i,j) present and colour(i)==colour(j):
	// check rows via gathered tuples.
	is, js, _ := g.A.ExtractTuples()
	ci, cx := colour.ExtractTuples()
	lookup := make(map[int]int32, len(ci))
	for k := range ci {
		lookup[ci[k]] = cx[k]
	}
	for k := range is {
		if is[k] != js[k] && lookup[is[k]] == lookup[js[k]] {
			return false
		}
	}
	return true
}
