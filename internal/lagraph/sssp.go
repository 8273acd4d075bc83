package lagraph

import (
	"fmt"
	"math"

	"lagraph/internal/grb"
	"lagraph/internal/obs"
)

// Single-source shortest paths (§V): a Bellman-Ford formulation over the
// (min,+) semiring, and the delta-stepping formulation of Sridhar et
// al. [32] used by LAGraph.

// notLess marks a candidate distance that improves nothing — the exact test
// of Sridhar et al.: a candidate counts only if it is strictly less than
// the distance it replaces.
func notLess(cand, cur float64) bool { return cand >= cur }

// SSSP's operators, built once: a generic constructor allocates its
// closures on every call.
var (
	minPlus   = grb.MinPlus[float64]()
	minOp     = grb.MinOp[float64]()
	minMonoid = grb.MinMonoid[float64]()
)

var (
	// descVC writes through the complement of a value mask.
	descVC = &grb.Descriptor{Comp: true, MaskValue: true}
	// descRVC replaces the output under the complement of a value mask.
	descRVC = &grb.Descriptor{Replace: true, Comp: true, MaskValue: true}
	// descPush relaxes under the complement of a structural mask — the
	// settled distances, which no candidate improves — and names the
	// direction. min's terminal value is −Inf, which no finite distance
	// reaches, so a pull stops early nowhere: it reads every unsettled
	// column of A (and builds A's column-major form on a graph's first
	// pull), where a push reads only its request's rows, and a whole query
	// reads each row about as often as its vertex enters or moves within
	// its bucket. BFS and BC leave the choice to grb, whose density switch
	// assumes a terminal that lets a dense-frontier pull stop early.
	descPush = &grb.Descriptor{Dir: grb.DirPush, Comp: true}
)

// SSSPBellmanFord iterates d ← d min (d min.+ A) until no candidate
// distance improves on d. Edge weights must be non-negative (no negative
// cycle detection). Unreached vertices hold no entry.
func SSSPBellmanFord(g *Graph, src int, opts ...Option) (_ *grb.Vector[float64], err error) {
	defer catch(&err)
	try(g.checkSource(src))
	cfg := newOptions(opts)
	lp := cfg.loop("sssp-bf")
	d := grb.MustVector[float64](g.N())
	_ = d.SetElement(src, 0)
	for iter := 1; iter <= cfg.maxIter(g.N()); iter++ {
		try(lp.next())
		// tNew = d min.+ A;  stale⟨tNew⟩ = tNew ≥ d
		tNew := grb.MustVector[float64](g.N())
		try(grb.VxM(tNew, (*grb.Vector[bool])(nil), nil, minPlus, d, g.A, nil))
		stale := grb.MustVector[bool](g.N())
		try(grb.EWiseMultVector(stale, tNew, nil, notLess, tNew, d, nil))
		// better⟨¬stale⟩ = tNew: the candidates strictly below d or newly
		// reached. None left is the fixed point, exactly.
		better := grb.MustVector[float64](g.N())
		try(grb.AssignVector(better, stale, nil, tNew, grb.All, descVC))
		lp.done(obs.IterRecord{Iter: iter, Frontier: better.Nvals()})
		if better.Nvals() == 0 {
			return d, nil
		}
		// d min= better
		try(grb.AssignVector(d, (*grb.Vector[bool])(nil), minOp, better, grb.All, nil))
	}
	return d, nil
}

// SSSP is the Options-based single-source shortest-path entry point:
// delta-stepping with a configurable bucket width (WithDelta; default 2).
// Weights must be non-negative.
func SSSP(g *Graph, src int, opts ...Option) (*grb.Vector[float64], error) {
	cfg := newOptions(opts)
	delta := cfg.Delta
	if delta == 0 {
		delta = 2
	}
	// Written so that NaN fails it too; +Inf would put bucket 0 at 0·Inf.
	if !(delta > 0) || math.IsInf(delta, 1) {
		return nil, ErrBadArgument
	}
	return ssspDelta(g, src, delta, &cfg)
}

// ssspDelta is the delta-stepping core: vertices are processed in distance
// buckets of width delta. Each step of a bucket pushes the whole row of
// every member that entered the bucket or moved within it; an edge of
// weight ≥ delta lands beyond the bucket, so a member's last push, at its
// final distance, is the one that settles its heavy edges.
//
// Each tentative distance lives in one place. unsettled holds the reached
// vertices not yet settled — the band at or beyond the current bucket —
// and t gets a vertex's distance once, when its bucket closes. A candidate
// pushed from bucket k is at least k·delta, never below a settled
// distance, so the push's complemented mask ⟨¬t⟩ drops only candidates
// that could not improve anything, and a step's writes are the band's size.
// The mask is also what keeps a settled vertex out of unsettled: there its
// candidate would find no entry to lose to and rejoin the band for ever.
func ssspDelta(g *Graph, src int, delta float64, cfg *Options) (_ *grb.Vector[float64], err error) {
	defer catch(&err)
	try(g.checkSource(src))
	lp := cfg.loop("sssp")
	n := g.N()

	t := grb.MustVector[float64](n)         // settled distances
	unsettled := grb.MustVector[float64](n) // tentative distances still to settle
	_ = unsettled.SetElement(src, 0)

	// Bucket step is [step·delta, step·delta + delta). Everything in
	// unsettled is at or beyond the previous bucket's upper bound, so a
	// bucket's members are the unsettled distances below its own.
	for step := 0; ; {
		try(lp.next())
		hi := float64(step)*delta + delta
		inBucket := func(x float64, _, _ int) bool { return x < hi }
		// tReq: the bucket members whose rows are still to push.
		tReq := grb.MustVector[float64](n)
		try(grb.SelectVector[float64, bool](tReq, nil, nil, inBucket, unsettled, nil))
		bucketSize := tReq.Nvals()
		if bucketSize == 0 {
			// unsettled is non-empty, so a later bucket holds its minimum:
			// go there, not through every empty bucket in between.
			m, err := grb.ReduceVectorToScalar(minMonoid, unsettled)
			try(err)
			var ok bool
			if step, ok = bucketOf(m, delta); !ok {
				return nil, fmt.Errorf("%w: delta %g cannot resolve distances near %g", ErrBadArgument, delta, m)
			}
			continue
		}
		// Relax until no bucket member moves.
		for tReq.Nvals() > 0 {
			// tNew⟨¬t⟩ = tReq min.+ A: candidates for unsettled vertices only.
			tNew, stale := grb.MustVector[float64](n), grb.MustVector[bool](n)
			try(grb.VxM(tNew, t, nil, minPlus, tReq, g.A, descPush))
			// stale⟨tNew⟩ = tNew ≥ unsettled (a vertex reached for the first
			// time has no entry in unsettled, so none in stale).
			try(grb.EWiseMultVector(stale, tNew, nil, notLess, tNew, unsettled, nil))
			// unsettled min= tNew: under min a stale candidate changes nothing.
			try(grb.AssignVector(unsettled, (*grb.Vector[bool])(nil), minOp, tNew, grb.All, nil))
			// tReq⟨¬stale,replace⟩ = tNew(inBucket): the members that moved.
			try(grb.SelectVector(tReq, stale, nil, inBucket, tNew, descRVC))
		}
		lp.done(obs.IterRecord{Iter: step + 1, Frontier: bucketSize})
		// Every tentative distance below hi is now final: t min= those,
		// and stop when nothing at or beyond hi is left.
		try(grb.SelectVector[float64, bool](t, nil, minOp, inBucket, unsettled, nil))
		try(grb.SelectVector[float64, bool](unsettled, nil, nil, grb.ValueGE(hi), unsettled, nil))
		if unsettled.Nvals() == 0 {
			return t, nil
		}
		step++
	}
}

// bucketOf returns the first bucket [k·delta, k·delta + delta) whose upper
// bound exceeds m, computed exactly as ssspDelta computes it. It reports
// false when delta is below the spacing of float64 around m — consecutive
// bucket bounds then round to one value, and no bucket can hold m.
func bucketOf(m, delta float64) (int, bool) {
	q := math.Floor(m / delta)
	if !(q < 1<<52) {
		return 0, false
	}
	// The quotient is off by at most one bucket either way.
	k := int(q)
	for k > 0 && m < float64(k-1)*delta+delta {
		k--
	}
	for m >= float64(k)*delta+delta {
		k++
	}
	return k, true
}

// APSP computes all-pairs shortest paths by (min,+) repeated squaring:
// D ← D min.+ D until a fixed point, starting from the adjacency with a
// zero diagonal. O(n³ log n) worst case — intended for modest n, as in
// the Solomonik-Buluç-Demmel formulation the paper cites [33].
func APSP(g *Graph, opts ...Option) (_ *grb.Matrix[float64], err error) {
	defer catch(&err)
	cfg := newOptions(opts)
	lp := cfg.loop("apsp")
	n := g.N()
	d := g.A.Dup()
	// Zero diagonal: d(i,i) = 0.
	for i := 0; i < n; i++ {
		try(d.SetElement(i, i, 0))
	}
	maxIter := 1
	for m := 1; m < n; m *= 2 {
		maxIter++
	}
	for iter := 0; iter < maxIter; iter++ {
		try(lp.next())
		prev := d.Nvals()
		sum, err := grb.ReduceMatrixToScalar(grb.PlusMonoid[float64](), d)
		try(err)
		// d ← d min (d min.+ d)
		try(grb.MxM(d, (*grb.Matrix[bool])(nil), minOp, minPlus, d, d, nil))
		sum2, err := grb.ReduceMatrixToScalar(grb.PlusMonoid[float64](), d)
		try(err)
		if d.Nvals() == prev && sum == sum2 {
			break
		}
	}
	return d, nil
}
