package lagraph

import (
	"math/rand"

	"lagraph/internal/grb"
	"lagraph/internal/obs"
)

// Maximal independent set (§V, [44]) by Luby's algorithm in GraphBLAS
// form, and greedy graph coloring (§V, [40]) by the Jones–Plassmann
// variant built on the same random-priority machinery.

// MIS computes a maximal independent set with Luby's randomized
// algorithm: every candidate draws a score; vertices whose score beats
// all neighbours' join the set; winners and their neighbours leave the
// candidate pool.
func MIS(g *Graph, seed int64, opts ...Option) (_ *grb.Vector[bool], err error) {
	defer catch(&err)
	try(g.requireUndirected())
	cfg := newOptions(opts)
	n := g.N()
	rng := rand.New(rand.NewSource(seed))

	// candidates: structural set of still-undecided vertices.
	candidates := grb.MustVector[bool](n)
	deg := g.OutDegree()
	for i := 0; i < n; i++ {
		_ = candidates.SetElement(i, true)
	}
	iset := grb.MustVector[bool](n)
	maxSecond := grb.Semiring[float64, float64, float64]{Add: grb.MaxMonoid[float64](), Mul: grb.Second[float64, float64]()}

	lp := cfg.loop("mis")
	for round := 1; round <= 2*n+65; round++ {
		try(lp.next())
		nc := candidates.Nvals()
		if nc == 0 {
			return iset, nil
		}
		// score(i) = random / (1 + deg(i)) for candidates (degree-aware
		// scores converge faster; Luby's classic analysis still applies).
		score := grb.MustVector[float64](n)
		ci, _ := candidates.ExtractTuples()
		for _, i := range ci {
			d, err := deg.GetElement(i)
			if err != nil {
				d = 0
			}
			_ = score.SetElement(i, rng.Float64()/float64(1+d))
		}
		// nbMax(i) = max score among neighbours.
		nbMax := grb.MustVector[float64](n)
		try(grb.MxV(nbMax, candidates, nil, maxSecond, g.A, score, nil))
		// winners: candidates whose score beats every neighbour's.
		winners := grb.MustVector[bool](n)
		scoreBeats := grb.MustVector[bool](n)
		// gt(i) = score(i) > nbMax(i) where both exist; candidates with
		// no competing neighbour win automatically.
		try(grb.EWiseMultVector[float64, float64, bool, bool](scoreBeats, nil, nil, grb.Gt[float64](), score, nbMax, nil))
		// winners = (candidates with no nbMax entry) ∪ (scoreBeats true).
		try(grb.ExtractVector(winners, nbMax, nil, candidates, grb.All, grb.DescC))
		try(grb.SelectVector[bool, bool](scoreBeats, nil, nil, grb.ValueEQ(true), scoreBeats, nil))
		try(grb.EWiseAddVector[bool, bool](winners, nil, nil, grb.LOr(), winners, scoreBeats, nil))
		if winners.Nvals() == 0 {
			continue // rare tie round; redraw
		}
		// iset ∪= winners.
		try(grb.EWiseAddVector[bool, bool](iset, nil, nil, grb.LOr(), iset, winners, nil))
		// neighboursOfWinners, to be removed from candidacy.
		lor := grb.Semiring[float64, bool, bool]{Add: grb.LOrMonoid(), Mul: grb.Second[float64, bool]()}
		nbw := grb.MustVector[bool](n)
		try(grb.MxV(nbw, candidates, nil, lor, g.A, winners, nil))
		// candidates ← candidates \ (winners ∪ nbw): keep entries of
		// candidates not present in either.
		drop := grb.MustVector[bool](n)
		try(grb.EWiseAddVector[bool, bool](drop, nil, nil, grb.LOr(), winners, nbw, nil))
		next := grb.MustVector[bool](n)
		try(grb.ExtractVector(next, drop, nil, candidates, grb.All, grb.DescC))
		candidates = next
		lp.done(obs.IterRecord{Iter: round, Frontier: nc})
	}
	return nil, ErrNoConvergence
}

// VerifyMIS checks independence and maximality; it returns false with a
// reason when the set is invalid. Exported for the test harness.
func VerifyMIS(g *Graph, iset *grb.Vector[bool]) (bool, string) {
	n := g.N()
	lor := grb.Semiring[float64, bool, bool]{Add: grb.LOrMonoid(), Mul: grb.Second[float64, bool]()}
	// nb(i) = true if any neighbour is in the set.
	nb := grb.MustVector[bool](n)
	if err := grb.MxV(nb, (*grb.Vector[bool])(nil), nil, lor, g.A, iset, nil); err != nil {
		return false, err.Error()
	}
	// Independence: no member may have a member neighbour.
	conflict := grb.MustVector[bool](n)
	if err := grb.EWiseMultVector[bool, bool, bool, bool](conflict, nil, nil, grb.LAnd(), iset, nb, nil); err != nil {
		return false, err.Error()
	}
	anyConflict, _ := grb.ReduceVectorToScalar(grb.LOrMonoid(), conflict)
	if anyConflict {
		return false, "independence violated"
	}
	// Maximality: every non-member with at least one edge must see a
	// member (isolated vertices must be members).
	deg := g.OutDegree()
	for i := 0; i < n; i++ {
		if _, err := iset.GetElement(i); err == nil {
			continue
		}
		if _, err := nb.GetElement(i); err == nil {
			continue
		}
		if d, err := deg.GetElement(i); err == nil && d > 0 {
			return false, "maximality violated"
		}
		// isolated vertex not in set
		if _, err := deg.GetElement(i); err != nil {
			return false, "isolated vertex excluded"
		}
	}
	return true, ""
}
