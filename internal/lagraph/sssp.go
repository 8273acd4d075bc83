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

// SSSPBellmanFord iterates d ← d min (d min.+ A) until no candidate
// distance improves on d. Edge weights must be non-negative (no negative
// cycle detection). Unreached vertices hold no entry.
func SSSPBellmanFord(g *Graph, src int, opts ...Option) (*grb.Vector[float64], error) {
	if err := g.checkSource(src); err != nil {
		return nil, err
	}
	cfg := newOptions(opts)
	ob := cfg.observer()
	d := grb.MustVector[float64](g.N())
	_ = d.SetElement(src, 0)
	for iter := 0; iter < cfg.maxIter(g.N()); iter++ {
		if err := cfg.canceled(); err != nil {
			return nil, err
		}
		var t0 int64
		if ob != nil {
			t0 = ob.Now()
		}
		// tNew = d min.+ A;  stale⟨tNew⟩ = tNew ≥ d
		tNew := grb.MustVector[float64](g.N())
		if err := grb.VxM(tNew, (*grb.Vector[bool])(nil), nil, grb.MinPlus[float64](), d, g.A, nil); err != nil {
			return nil, err
		}
		stale := grb.MustVector[bool](g.N())
		if err := grb.EWiseMultVector(stale, tNew, nil, notLess, tNew, d, nil); err != nil {
			return nil, err
		}
		// better⟨¬stale⟩ = tNew: the candidates strictly below d or newly
		// reached. None left is the fixed point, exactly.
		better := grb.MustVector[float64](g.N())
		if err := grb.AssignVector(better, stale, nil, tNew, grb.All, &grb.Descriptor{Comp: true, MaskValue: true}); err != nil {
			return nil, err
		}
		if ob != nil {
			ob.Iter(obs.IterRecord{Algo: "sssp-bf", Iter: iter + 1, Frontier: better.Nvals(), DurNanos: ob.Now() - t0})
		}
		if better.Nvals() == 0 {
			return d, nil
		}
		// d min= better
		if err := grb.AssignVector(d, (*grb.Vector[bool])(nil), grb.MinOp[float64](), better, grb.All, nil); err != nil {
			return nil, err
		}
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
// buckets of width delta; light edges (< delta) are relaxed repeatedly
// inside the bucket, heavy edges once per bucket.
func ssspDelta(g *Graph, src int, delta float64, cfg *Options) (*grb.Vector[float64], error) {
	if err := g.checkSource(src); err != nil {
		return nil, err
	}
	ob := cfg.observer()
	n := g.N()

	light, heavy, err := g.deltaSplit(delta)
	if err != nil {
		return nil, err
	}

	t := grb.MustVector[float64](n) // tentative distances
	_ = t.SetElement(src, 0)
	// unsettled holds, entry for entry equal to t, the tentative distances
	// at or beyond the current bucket: the reached vertices still to
	// settle. Buckets are drawn from it, so a bucket costs what the band of
	// unsettled vertices does, not a sweep of t.
	unsettled := t.Dup()

	minPlus := grb.MinPlus[float64]()
	minOp := grb.MinOp[float64]()
	// descVC writes through the complement of a value mask, descRVC with
	// replace.
	descVC := &grb.Descriptor{Comp: true, MaskValue: true}
	descRVC := &grb.Descriptor{Replace: true, Comp: true, MaskValue: true}
	// Relaxations name their direction. The product is an unmasked min.+,
	// and min's terminal value is −Inf, which no finite distance reaches, so
	// a pull has nothing to skip: it costs nnz(edges) per call, plus a
	// transpose of the half of A it sweeps, where the pushes of a whole
	// query sum to about nnz(A) — and a push only reads the halves, which
	// concurrent queries share. BFS and BC leave the choice to grb,
	// whose density switch assumes a mask or a terminal that lets a
	// dense-frontier pull stop early.
	descPush := &grb.Descriptor{Dir: grb.DirPush}

	// relax folds the candidate distances tNew = from min.+ edges into t
	// and unsettled. stale marks the candidates notLess rejects (a vertex
	// reached for the first time has no entry in t, so none in stale).
	relax := func(from *grb.Vector[float64], edges *grb.Matrix[float64]) (tNew *grb.Vector[float64], stale *grb.Vector[bool], err error) {
		tNew = grb.MustVector[float64](n)
		if err = grb.VxM(tNew, (*grb.Vector[bool])(nil), nil, minPlus, from, edges, descPush); err != nil {
			return
		}
		// stale⟨tNew⟩ = tNew ≥ t
		stale = grb.MustVector[bool](n)
		if err = grb.EWiseMultVector(stale, tNew, nil, notLess, tNew, t, nil); err != nil {
			return
		}
		// t min= tNew;  unsettled⟨¬stale⟩ min= tNew
		if err = grb.AssignVector(t, (*grb.Vector[bool])(nil), minOp, tNew, grb.All, nil); err != nil {
			return
		}
		err = grb.AssignVector(unsettled, stale, minOp, tNew, grb.All, descVC)
		return
	}

	// Bucket step is [step·delta, step·delta + delta). Everything in
	// unsettled is at or beyond the previous bucket's upper bound, so a
	// bucket's members are the unsettled distances below its own.
	for step := 0; ; {
		if err := cfg.canceled(); err != nil {
			return nil, err
		}
		hi := float64(step)*delta + delta
		inBucket := func(x float64, _, _ int) bool { return x < hi }
		// tReq: the bucket members whose light edges are still to relax.
		tReq := grb.MustVector[float64](n)
		if err := grb.SelectVector[float64, bool](tReq, nil, nil, inBucket, unsettled, nil); err != nil {
			return nil, err
		}
		bucketSize := tReq.Nvals()
		if bucketSize == 0 {
			// unsettled is non-empty, so a later bucket holds its minimum:
			// go there, not through every empty bucket in between.
			m, err := grb.ReduceVectorToScalar(grb.MinMonoid[float64](), unsettled)
			if err != nil {
				return nil, err
			}
			var ok bool
			if step, ok = bucketOf(m, delta); !ok {
				return nil, fmt.Errorf("%w: delta %g cannot resolve distances near %g", ErrBadArgument, delta, m)
			}
			continue
		}
		var t0 int64
		if ob != nil {
			t0 = ob.Now()
		}
		// Relax light edges until no bucket member moves.
		members := grb.MustVector[bool](n) // every vertex the bucket has held
		for tReq.Nvals() > 0 {
			if err := grb.AssignVectorScalar(members, tReq, nil, true, grb.All, nil); err != nil {
				return nil, err
			}
			tNew, stale, err := relax(tReq, light)
			if err != nil {
				return nil, err
			}
			// tReq⟨¬stale,replace⟩ = tNew(inBucket): the members that moved.
			if err := grb.SelectVector(tReq, stale, nil, inBucket, tNew, descRVC); err != nil {
				return nil, err
			}
		}
		// Settle the bucket: relax heavy edges once from all its members,
		// at their final distances.
		if err := grb.EWiseMultVector[float64, bool, float64, bool](tReq, nil, nil, grb.First[float64, bool](), t, members, nil); err != nil {
			return nil, err
		}
		if _, _, err := relax(tReq, heavy); err != nil {
			return nil, err
		}
		if ob != nil {
			ob.Iter(obs.IterRecord{
				Algo: "sssp", Iter: step + 1,
				Frontier: bucketSize,
				DurNanos: ob.Now() - t0,
			})
		}
		// Every tentative distance below hi is now final; stop when nothing
		// at or beyond hi is left.
		if err := grb.SelectVector[float64, bool](unsettled, nil, nil, grb.ValueGE(hi), unsettled, nil); err != nil {
			return nil, err
		}
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
func APSP(g *Graph, opts ...Option) (*grb.Matrix[float64], error) {
	cfg := newOptions(opts)
	n := g.N()
	d := g.A.Dup()
	// Zero diagonal: d(i,i) = 0.
	for i := 0; i < n; i++ {
		if err := d.SetElement(i, i, 0); err != nil {
			return nil, err
		}
	}
	minPlus := grb.MinPlus[float64]()
	maxIter := 1
	for m := 1; m < n; m *= 2 {
		maxIter++
	}
	for iter := 0; iter < maxIter; iter++ {
		if err := cfg.canceled(); err != nil {
			return nil, err
		}
		prev := d.Nvals()
		sum, err := grb.ReduceMatrixToScalar(grb.PlusMonoid[float64](), d)
		if err != nil {
			return nil, err
		}
		// d ← d min (d min.+ d)
		if err := grb.MxM(d, (*grb.Matrix[bool])(nil), grb.MinOp[float64](), minPlus, d, d, nil); err != nil {
			return nil, err
		}
		sum2, err := grb.ReduceMatrixToScalar(grb.PlusMonoid[float64](), d)
		if err != nil {
			return nil, err
		}
		if d.Nvals() == prev && sum == sum2 {
			break
		}
	}
	return d, nil
}
