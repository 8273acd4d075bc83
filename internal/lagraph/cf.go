package lagraph

import (
	"math"
	"math/rand"

	"lagraph/internal/grb"
)

// Collaborative filtering by gradient descent (§V, [39]): the GraphMat /
// Satish et al. formulation of matrix completion, R ≈ U·Vᵀ, where the
// error matrix is computed with a *masked* matrix multiply — only the
// observed ratings are evaluated, which is exactly the fused masked-mxm
// kernel the paper highlights (§II-A).

// CFModel is a trained factorization.
type CFModel struct {
	// U is the nusers×rank user-factor matrix (dense).
	U *grb.Matrix[float64]
	// V is the nitems×rank item-factor matrix (dense).
	V *grb.Matrix[float64]
	// RMSE is the training root-mean-square error per epoch.
	RMSE []float64
}

// CollaborativeFiltering factorizes the sparse rating matrix r
// (nusers×nitems) into rank-dimensional factors by full-batch gradient
// descent:
//
//	E⟨pattern(R)⟩ = R − U·Vᵀ        (masked mxm)
//	U += lr·(E·V − reg·U)
//	V += lr·(Eᵀ·U − reg·V)
func CollaborativeFiltering(r *grb.Matrix[float64], rank int, lr, reg float64, epochs int, seed int64) (_ *CFModel, err error) {
	defer catch(&err)
	if r == nil {
		return nil, grb.ErrUninitialized
	}
	if rank <= 0 || lr <= 0 || epochs <= 0 {
		return nil, ErrBadArgument
	}
	nu, ni := r.Nrows(), r.Ncols()
	nobs := r.Nvals()
	if nobs == 0 {
		return nil, ErrBadArgument
	}
	rng := rand.New(rand.NewSource(seed))
	u := denseRandom(rng, nu, rank, 0.5)
	v := denseRandom(rng, ni, rank, 0.5)

	plusTimes := grb.PlusTimes[float64]()
	model := &CFModel{U: u, V: v}
	for epoch := 0; epoch < epochs; epoch++ {
		// E⟨R⟩ = U·Vᵀ restricted to observed entries, then E = R − E.
		e := grb.MustMatrix[float64](nu, ni)
		dT1 := &grb.Descriptor{TranB: true, Method: grb.MxMDot}
		try(grb.MxM(e, r, nil, plusTimes, u, v, dT1))
		try(grb.EWiseMultMatrix[float64, float64, float64, bool](e, nil, nil,
			grb.Minus[float64](), r, e, nil))
		// RMSE over observed entries.
		sq := grb.MustMatrix[float64](nu, ni)
		try(grb.ApplyMatrix[float64, float64, bool](sq, nil, nil,
			func(x float64) float64 { return x * x }, e, nil))
		sse, err := grb.ReduceMatrixToScalar(grb.PlusMonoid[float64](), sq)
		try(err)
		model.RMSE = append(model.RMSE, math.Sqrt(sse/float64(nobs)))

		// Gradient steps.
		gu := grb.MustMatrix[float64](nu, rank)
		try(grb.MxM(gu, (*grb.Matrix[bool])(nil), nil, plusTimes, e, v, nil))
		gv := grb.MustMatrix[float64](ni, rank)
		try(grb.MxM(gv, (*grb.Matrix[bool])(nil), nil, plusTimes, e, u, grb.DescT0))
		try(sgdStep(u, gu, lr, reg))
		try(sgdStep(v, gv, lr, reg))
	}
	return model, nil
}

// sgdStep applies x += lr*(g - reg*x) element-wise (x dense).
func sgdStep(x, g *grb.Matrix[float64], lr, reg float64) (err error) {
	defer catch(&err)
	// x ← (1 - lr*reg)·x + lr·g
	shrunk := grb.MustMatrix[float64](x.Nrows(), x.Ncols())
	try(grb.ApplyMatrix[float64, float64, bool](shrunk, nil, nil,
		func(v float64) float64 { return (1 - lr*reg) * v }, x, nil))
	scaledG := grb.MustMatrix[float64](g.Nrows(), g.Ncols())
	try(grb.ApplyMatrix[float64, float64, bool](scaledG, nil, nil,
		func(v float64) float64 { return lr * v }, g, nil))
	return grb.EWiseAddMatrix[float64, bool](x, nil, nil, grb.Plus[float64](), shrunk, scaledG, nil)
}

// Predict returns the model's rating estimate for (user, item).
func (m *CFModel) Predict(user, item int) (_ float64, err error) {
	defer catch(&err)
	rank := m.U.Ncols()
	sum := 0.0
	for f := 0; f < rank; f++ {
		uf, err := m.U.GetElement(user, f)
		try(err)
		vf, err := m.V.GetElement(item, f)
		try(err)
		sum += uf * vf
	}
	return sum, nil
}

// denseRandom builds a dense nr×nc matrix of small random values.
func denseRandom(rng *rand.Rand, nr, nc int, scale float64) *grb.Matrix[float64] {
	is := make([]int, 0, nr*nc)
	js := make([]int, 0, nr*nc)
	xs := make([]float64, 0, nr*nc)
	for i := 0; i < nr; i++ {
		for j := 0; j < nc; j++ {
			is = append(is, i)
			js = append(js, j)
			xs = append(xs, (rng.Float64()-0.5)*2*scale)
		}
	}
	m := grb.MustMatrix[float64](nr, nc)
	if err := m.Build(is, js, xs, nil); err != nil {
		panic(err)
	}
	return m
}
