package lagraph

import (
	"lagraph/internal/grb"
	"lagraph/internal/obs"
)

// Connected components (§V, [38]): the FastSV algorithm of Zhang, Azad
// and Buluç (the basis of LACC/LAGraph's CC), plus a simple label
// propagation formulation used as a second, independent GraphBLAS
// implementation.

// CCResult carries the component labels plus convergence information
// (mirroring PageRankResult), so the service layer can report
// iterations-to-convergence for full vs warm-started runs.
type CCResult struct {
	Labels     *grb.Vector[int64]
	Iterations int
}

// ConnectedComponentsFastSV labels every vertex with the smallest vertex
// id in its (weakly) connected component. Directed graphs are treated as
// undirected by also propagating along transposed edges.
func ConnectedComponentsFastSV(g *Graph, opts ...Option) (*grb.Vector[int64], error) {
	res, err := ConnectedComponentsWith(g, opts...)
	if err != nil {
		return nil, err
	}
	return res.Labels, nil
}

// ConnectedComponentsWith is ConnectedComponentsFastSV with convergence
// information attached.
func ConnectedComponentsWith(g *Graph, opts ...Option) (*CCResult, error) {
	cfg := newOptions(opts)
	return fastSVFrom(g, nil, false, &cfg)
}

// fastSVFrom runs the FastSV loop from an initial parent vector. f0 nil
// selects the cold start f(i)=i; a warm start passes prior labels, whose
// validity (every f0(i) names a vertex in i's component, and none larger
// than i) the caller must guarantee — see IncrementalCC. The op sequence
// per iteration is identical in both modes, so cold results are bitwise
// unchanged by this refactor and warm results converge to the same
// canonical min-id fixed point.
func fastSVFrom(g *Graph, f0 *grb.Vector[int64], warm bool, cfg *Options) (_ *CCResult, err error) {
	defer catch(&err)
	n := g.N()
	// f: parent pointer vector, dense.
	var f *grb.Vector[int64]
	if f0 == nil {
		ids := make([]int64, n)
		for i := range ids {
			ids[i] = int64(i)
		}
		f = grb.DenseVector(ids)
	} else {
		f = f0.Dup()
	}

	// min.second never loads the stored weight, so it multiplies A itself:
	// MinSecondOf pairs the int64 labels with float64 entries, and grb runs
	// it as visible arithmetic (a literal semiring would run its closures).
	minSecond, a := grb.MinSecondOf[float64, int64](), g.A

	lp := cfg.loop("cc-fastsv")
	// Workspaces, allocated once: gp (grandparent) and newGP swap roles
	// each iteration, and every one but the returned f is cleared at exit.
	gp, newGP, mngp := f.Dup(), grb.MustVector[int64](n), grb.MustVector[int64](n)
	defer func() { gp.Clear(); newGP.Clear(); mngp.Clear() }()
	for iter := 1; iter <= n+1; iter++ {
		try(lp.next())
		// mngp(i) = min over neighbours j of gp(j).
		try(grb.MxV(mngp, (*grb.Vector[bool])(nil), nil, minSecond, a, gp, nil))
		if g.Kind == Directed {
			try(grb.MxV(mngp, (*grb.Vector[bool])(nil), grb.MinOp[int64](), minSecond, a, gp, grb.DescT0))
		}

		// Hooking: f(i) ← min(f(i), mngp(i), gp(i)). Zhang et al.'s
		// stochastic hooking, f(f(i)) ← min(f(f(i)), mngp(i)), is omitted.
		try(grb.EWiseAddVector[int64, bool](f, nil, nil, grb.MinOp[int64](), f, mngp, nil))
		try(grb.EWiseAddVector[int64, bool](f, nil, nil, grb.MinOp[int64](), f, gp, nil))

		// The gather list of the shortcut below, idx(i) = f(i), read off a
		// snapshot of f (the C formulation uses GrB_extract with f as the
		// index vector). The snapshot's index slice is the caller's, so it
		// is overwritten into the list.
		idx, fx := f.ExtractTuples()
		for k := range fx {
			idx[k] = int(fx[k])
		}

		// Shortcutting: f(i) ← f(f(i)); compute the new grandparent.
		try(grb.ExtractVector[int64, bool](newGP, nil, nil, f, idx, nil))
		try(grb.EWiseAddVector[int64, bool](f, nil, nil, grb.MinOp[int64](), f, newGP, nil))

		stable, err := isEqual(gp, newGP)
		try(err)
		lp.done(obs.IterRecord{Iter: iter, Warm: warm})
		// Converged when the grandparent vector is stable.
		if stable {
			return &CCResult{Labels: f, Iterations: iter}, nil
		}
		gp, newGP = newGP, gp
	}
	return nil, ErrNoConvergence
}

// isEqual reports whether two vectors have the same pattern and values
// (the paper's LAGraph_isequal utility, §IV): equal entry counts, then an
// eWiseMult with == over the common pattern, which must cover both and
// reduce to true under logical and.
func isEqual(a, b *grb.Vector[int64]) (_ bool, err error) {
	defer catch(&err)
	if a.Size() != b.Size() || a.Nvals() != b.Nvals() {
		return false, nil
	}
	same := grb.MustVector[bool](a.Size())
	defer same.Clear() // GrB_free: the temporary's storage goes back to grb
	eq := func(x, y int64) bool { return x == y }
	try(grb.EWiseMultVector[int64, int64, bool, bool](same, nil, nil, eq, a, b, nil))
	if same.Nvals() != a.Nvals() {
		return false, nil
	}
	return grb.ReduceVectorToScalar(grb.LAndMonoid(), same)
}

// ConnectedComponentsLabelProp iterates l ← min(l, min-neighbour(l))
// until a fixed point: the simplest CC formulation, used as an
// independent oracle.
func ConnectedComponentsLabelProp(g *Graph, opts ...Option) (_ *grb.Vector[int64], err error) {
	defer catch(&err)
	cfg := newOptions(opts)
	lp := cfg.loop("cc-labelprop")
	n := g.N()
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
	}
	l := grb.DenseVector(ids)
	minSecond, a := grb.MinSecondOf[float64, int64](), g.A
	for iter := 0; iter <= n; iter++ {
		try(lp.next())
		prev := l.Dup()
		try(grb.MxV(l, (*grb.Vector[bool])(nil), grb.MinOp[int64](), minSecond, a, l, nil))
		if g.Kind == Directed {
			try(grb.MxV(l, (*grb.Vector[bool])(nil), grb.MinOp[int64](), minSecond, a, l, grb.DescT0))
		}
		same, err := isEqual(prev, l)
		try(err)
		if same {
			return l, nil
		}
	}
	return nil, ErrNoConvergence
}

// CountComponents returns the number of distinct labels in a component
// vector.
func CountComponents(labels *grb.Vector[int64]) int {
	_, xs := labels.ExtractTuples()
	seen := map[int64]struct{}{}
	for _, x := range xs {
		seen[x] = struct{}{}
	}
	return len(seen)
}
