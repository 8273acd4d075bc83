package lagraph

import (
	"math"

	"lagraph/internal/grb"
	"lagraph/internal/obs"
)

// HITS (Kleinberg's hubs and authorities): the §V list is explicitly
// non-exhaustive, and HITS is the other classic ranking that is pure
// linear algebra — alternating a = Aᵀh, h = Aa with normalization, i.e.
// the power method on AᵀA / AAᵀ.

// HITSResult carries the two scores and convergence information.
type HITSResult struct {
	Hubs        *grb.Vector[float64]
	Authorities *grb.Vector[float64]
	Iterations  int
	Converged   bool
}

// HITSWith computes hub and authority scores, stopping when the L1 change
// of both vectors drops below the tolerance. Defaults: tolerance 1e-6,
// at most 50 iterations.
func HITSWith(g *Graph, opts ...Option) (_ *HITSResult, err error) {
	defer catch(&err)
	cfg := newOptions(opts)
	tol := cfg.tol(1e-6)
	maxIter := cfg.maxIter(50)
	lp := cfg.loop("hits")
	n := g.N()
	hubs := grb.DenseVector(constants(n, 1/math.Sqrt(float64(n))))
	auth := grb.DenseVector(constants(n, 1/math.Sqrt(float64(n))))
	plusSecond := grb.PlusSecond[float64]()

	for iter := 1; iter <= maxIter; iter++ {
		try(lp.next())
		// a' = Aᵀ h (authorities collect from in-links).
		newAuth := grb.MustVector[float64](n)
		try(grb.MxV(newAuth, (*grb.Vector[bool])(nil), nil, plusSecond, g.A, hubs, grb.DescT0))
		try(normalizeL2(newAuth, n))
		// h' = A a' (hubs collect from out-links).
		newHubs := grb.MustVector[float64](n)
		try(grb.MxV(newHubs, (*grb.Vector[bool])(nil), nil, plusSecond, g.A, newAuth, nil))
		try(normalizeL2(newHubs, n))
		dh, err := l1diff(newHubs, hubs, n)
		try(err)
		da, err := l1diff(newAuth, auth, n)
		try(err)
		hubs, auth = newHubs, newAuth
		lp.done(obs.IterRecord{Iter: iter, Residual: dh + da})
		if dh+da < tol {
			return &HITSResult{Hubs: hubs, Authorities: auth, Iterations: iter, Converged: true}, nil
		}
	}
	return &HITSResult{Hubs: hubs, Authorities: auth, Iterations: maxIter, Converged: false}, nil
}

// normalizeL2 scales v to unit Euclidean norm (no-op on a zero vector).
func normalizeL2(v *grb.Vector[float64], n int) (err error) {
	defer catch(&err)
	sq := grb.MustVector[float64](n)
	try(grb.ApplyVector[float64, float64, bool](sq, nil, nil,
		func(x float64) float64 { return x * x }, v, nil))
	ss, err := grb.ReduceVectorToScalar(grb.PlusMonoid[float64](), sq)
	try(err)
	if ss == 0 {
		return nil
	}
	inv := 1 / math.Sqrt(ss)
	return grb.ApplyVectorBind2nd[float64, float64, float64, bool](v, nil, nil,
		grb.Times[float64](), v, inv, nil)
}

// l1diff returns ‖u − v‖₁ over the union of patterns.
func l1diff(u, v *grb.Vector[float64], n int) (_ float64, err error) {
	defer catch(&err)
	d := grb.MustVector[float64](n)
	try(grb.EWiseUnionVector[float64, bool](d, nil, nil, grb.Minus[float64](), u, 0, v, 0, nil))
	abs := grb.MustVector[float64](n)
	try(grb.ApplyVector[float64, float64, bool](abs, nil, nil, math.Abs, d, nil))
	return grb.ReduceVectorToScalar(grb.PlusMonoid[float64](), abs)
}
