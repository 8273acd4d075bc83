package lagraph

import "lagraph/internal/grb"

// Sparse deep neural network inference (§V, [47]): the GraphChallenge
// formulation of Kepner et al. — each layer is a sparse matrix-matrix
// multiply followed by a bias eWise-add and a ReLU apply, optionally
// clamped at a ceiling. Pure Table I operations.

// DNNLayer holds one layer's weights and per-neuron bias.
type DNNLayer struct {
	// W is the nneurons×nneurons sparse weight matrix.
	W *grb.Matrix[float64]
	// Bias is added to every active (row, neuron) pair after the multiply.
	Bias *grb.Vector[float64]
}

// DNNInference propagates the nfeatures×nneurons activation matrix y0
// through the layers: y ← clamp(relu(y·W + bias), ymax). A ymax of 0
// disables clamping.
func DNNInference(y0 *grb.Matrix[float64], layers []DNNLayer, ymax float64) (_ *grb.Matrix[float64], err error) {
	defer catch(&err)
	if y0 == nil {
		return nil, grb.ErrUninitialized
	}
	y := y0.Dup()
	plusTimes := grb.PlusTimes[float64]()
	for _, layer := range layers {
		if layer.W == nil {
			return nil, grb.ErrUninitialized
		}
		if y.Ncols() != layer.W.Nrows() {
			return nil, grb.ErrDimensionMismatch
		}
		z := grb.MustMatrix[float64](y.Nrows(), layer.W.Ncols())
		try(grb.MxM(z, (*grb.Matrix[bool])(nil), nil, plusTimes, y, layer.W, nil))
		// Add the bias to active entries: z(i,j) += bias(j).
		if layer.Bias != nil {
			if layer.Bias.Size() != z.Ncols() {
				return nil, grb.ErrDimensionMismatch
			}
			bias := layer.Bias
			try(grb.ApplyIndexMatrix(z, (*grb.Matrix[bool])(nil), nil,
				func(x float64, _, j int) float64 {
					b, err := bias.GetElement(j)
					if err != nil {
						return x
					}
					return x + b
				}, z, nil))
		}
		// ReLU: keep strictly positive activations.
		try(grb.SelectMatrix[float64, bool](z, nil, nil, grb.ValueGT(0.0), z, grb.DescR))
		// Clamp at ymax (the GraphChallenge saturation).
		if ymax > 0 {
			try(grb.ApplyMatrix[float64, float64, bool](z, nil, nil,
				func(x float64) float64 {
					if x > ymax {
						return ymax
					}
					return x
				}, z, nil))
		}
		y = z
	}
	return y, nil
}

// DNNCategories returns the rows of the final activation matrix that have
// any surviving activation — the "categories" output of the
// GraphChallenge benchmark.
func DNNCategories(y *grb.Matrix[float64]) (_ *grb.Vector[bool], err error) {
	defer catch(&err)
	rows := grb.MustVector[float64](y.Nrows())
	try(grb.ReduceMatrixToVector[float64, bool](rows, nil, nil, grb.PlusMonoid[float64](), y, nil))
	cats := grb.MustVector[bool](y.Nrows())
	try(grb.ApplyVector[float64, bool, bool](cats, nil, nil,
		func(x float64) bool { return x > 0 }, rows, nil))
	try(grb.SelectVector[bool, bool](cats, nil, nil, grb.ValueEQ(true), cats, grb.DescR))
	return cats, nil
}
