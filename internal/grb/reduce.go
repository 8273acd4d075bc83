package grb

// Reductions of Table I: matrix→vector (row-wise), matrix→scalar, and
// vector→scalar, all driven by a Monoid through Monoid.fold. Terminal
// monoid values short-cut the reduction (§II-A's early-exit mechanism).

// ReduceMatrixToVector computes w⟨m⟩ ⊙= ⊕ⱼ A(:,j): each output element is
// the monoid-reduction of the corresponding row of A (or column, with
// TranA).
func ReduceMatrixToVector[T, M any](w *Vector[T], mask *Vector[M], accum BinaryOp[T, T, T], mon Monoid[T], a *Matrix[T], desc *Descriptor) error {
	if w == nil || a == nil || mon.Op == nil {
		return opError("reduce", ErrUninitialized)
	}
	d := desc.get()
	ar := a.nr
	if d.TranA {
		ar = a.nc
	}
	if w.n != ar {
		return opErrorf("reduce", ErrDimensionMismatch, "w is %d, A has %d rows", w.n, ar)
	}
	ca := orientedCSR(a, d.TranA)
	nvec := ca.nvecs()
	// Reduce rows in flop-balanced parallel ranges staged per row, then
	// compact in order (a hub row no longer serializes the reduction).
	vals := make([]T, nvec)
	nonempty := make([]bool, nvec)
	parallelWork(nvec, mxmWorkQuantum, func(k int) int { return ca.p[k+1] - ca.p[k] + 1 }, nil, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			if ca.p[k+1] == ca.p[k] {
				continue
			}
			_, cx := ca.vec(k)
			vals[k], nonempty[k] = mon.fold(nil, cx), true
		}
	})
	zi := make([]int, 0, nvec)
	zx := make([]T, 0, nvec)
	for k := 0; k < nvec; k++ {
		if nonempty[k] {
			zi = append(zi, ca.majorOf(k))
			zx = append(zx, vals[k])
		}
	}
	return writeVectorResult(w, mask, accum, zi, zx, d)
}

// ReduceMatrixToScalar reduces every stored entry of A with the monoid, in
// row-major order; an A with none reduces to the monoid's identity.
func ReduceMatrixToScalar[T any](mon Monoid[T], a *Matrix[T]) (T, error) {
	var zero T
	if a == nil || mon.Op == nil {
		return zero, opError("reduce", ErrUninitialized)
	}
	c := a.materializedCSR()
	// Chunk boundaries depend only on n (never the worker count), and
	// partials fold in chunk order, so the reduction is deterministic at
	// any parallelism even for rounding-sensitive monoids.
	bounds := workChunks(len(c.x), func(int) int { return 1 }, reduceChunkEntries, pushMaxChunks)
	partial := make([]T, len(bounds)-1)
	runChunks(bounds, func(b, lo, hi int) {
		partial[b] = mon.fold(nil, c.x[lo:hi])
	})
	return mon.fold(nil, partial), nil
}

// ReduceVectorToScalar reduces every stored entry of u with the monoid.
func ReduceVectorToScalar[T any](mon Monoid[T], u *Vector[T]) (T, error) {
	var zero T
	if u == nil || mon.Op == nil {
		return zero, opError("reduce", ErrUninitialized)
	}
	// Stored entries fold in ascending index order whichever form holds
	// them — the same association, so the same bits — and a dense-held
	// vector is read off its lanes rather than compacted to be read, with
	// no presence test when it is full.
	r := u.ref()
	switch {
	case r.sparse:
		return mon.fold(nil, r.x), nil
	case r.nvals == u.n:
		return mon.fold(nil, r.dx), nil
	}
	return mon.fold(r.b, r.dx), nil
}
