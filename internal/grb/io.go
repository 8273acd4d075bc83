package grb

// This file implements extractTuples and the move-constructor style
// import/export of §IV of the paper: passing ownership of the Ap/Ai/Ax
// arrays between the application and the library in O(1), without copying.

// ExtractTuples returns the stored entries in row-major order as parallel
// coordinate slices. It costs Ω(e) — the paper contrasts this with the
// O(1) export below.
func (a *Matrix[T]) ExtractTuples() (is, js []int, xs []T) {
	c := a.materializedCSR()
	n := c.nvals()
	is = make([]int, 0, n)
	js = make([]int, 0, n)
	xs = make([]T, 0, n)
	for k := 0; k < c.nvecs(); k++ {
		row := c.majorOf(k)
		ci, cx := c.vec(k)
		for t := range ci {
			is = append(is, row)
			js = append(js, ci[t])
			xs = append(xs, cx[t])
		}
	}
	return is, js, xs
}

// ImportCSR wraps caller-provided CSR arrays as a Matrix in O(1) time:
// ownership of p, i and x moves to the library ("move constructor", §IV).
// p must have length nrows+1 with p[0]==0 and be non-decreasing; the column
// indices of each row must be sorted and in range. Validation is O(e); pass
// trusted=true to skip it and make the import truly O(1).
func ImportCSR[T any](nrows, ncols int, p, i []int, x []T, trusted bool) (*Matrix[T], error) {
	if nrows < 0 || ncols < 0 || len(p) != nrows+1 || len(i) != len(x) {
		return nil, opErrorf("import", ErrInvalidValue, "CSR shape: dims %d×%d, len(p)=%d, %d indices, %d values", nrows, ncols, len(p), len(i), len(x))
	}
	if !trusted {
		if err := validateCS(nrows, ncols, p, nil, i); err != nil {
			return nil, err
		}
	}
	return &Matrix[T]{
		nr: nrows, nc: ncols,
		csr: &cs[T]{nmajor: nrows, nminor: ncols, p: p, i: i, x: x},
	}, nil
}

// ImportHyperCSR wraps hypersparse CSR arrays in O(1): h lists the
// non-empty rows ascending, p has length len(h)+1.
func ImportHyperCSR[T any](nrows, ncols int, p, h, i []int, x []T, trusted bool) (*Matrix[T], error) {
	if nrows < 0 || ncols < 0 || len(p) != len(h)+1 || len(i) != len(x) {
		return nil, opErrorf("import", ErrInvalidValue, "hyper-CSR shape: dims %d×%d, len(p)=%d, len(h)=%d, %d indices, %d values", nrows, ncols, len(p), len(h), len(i), len(x))
	}
	if !trusted {
		if err := validateCS(nrows, ncols, p, h, i); err != nil {
			return nil, err
		}
	}
	return &Matrix[T]{
		nr: nrows, nc: ncols,
		csr: &cs[T]{nmajor: nrows, nminor: ncols, p: p, h: h, i: i, x: x},
	}, nil
}

// ImportCSC wraps CSC arrays (p over columns, i holding row indices). The
// library's internal layout is row-major, so — exactly as §IV anticipates
// for implementations whose opaque format differs — the data is transposed
// in O(e) rather than adopted in O(1). The CSC arrays are retained as the
// column-cache so a subsequent ExportCSC is O(1).
func ImportCSC[T any](nrows, ncols int, p, i []int, x []T, trusted bool) (*Matrix[T], error) {
	if nrows < 0 || ncols < 0 || len(p) != ncols+1 || len(i) != len(x) {
		return nil, opErrorf("import", ErrInvalidValue, "CSC shape: dims %d×%d, len(p)=%d, %d indices, %d values", nrows, ncols, len(p), len(i), len(x))
	}
	if !trusted {
		if err := validateCS(ncols, nrows, p, nil, i); err != nil {
			return nil, err
		}
	}
	csc := &cs[T]{nmajor: ncols, nminor: nrows, p: p, i: i, x: x}
	return &Matrix[T]{
		nr: nrows, nc: ncols,
		csr: transposeCS(csc), csc: csc,
	}, nil
}

// ExportCSR removes the CSR arrays from the matrix and hands ownership to
// the caller in O(1) (after pending work completes). The matrix is emptied:
// after an export, re-importing the same arrays reconstructs it perfectly
// (§IV). Hypersparse matrices are expanded to standard form first (O(n)).
func (a *Matrix[T]) ExportCSR() (nrows, ncols int, p, i []int, x []T) {
	c := a.materializedCSR()
	if c.h != nil {
		c = hyperToStandard(c)
	}
	nrows, ncols, p, i, x = a.nr, a.nc, ownedPtrs(c.p), c.i, c.x
	a.Clear()
	return
}

// ExportHyperCSR removes the hypersparse CSR arrays in O(1). Standard
// matrices are compacted first (O(n)).
func (a *Matrix[T]) ExportHyperCSR() (nrows, ncols int, p, h, i []int, x []T) {
	c := a.materializedCSR()
	if c.h == nil {
		c = standardToHyper(c)
	}
	nrows, ncols, p, h, i, x = a.nr, a.nc, c.p, c.h, c.i, c.x
	a.Clear()
	return
}

// ExportCSC removes CSC arrays from the matrix; O(1) when the column cache
// is already materialized, O(e) otherwise.
func (a *Matrix[T]) ExportCSC() (nrows, ncols int, p, i []int, x []T) {
	c := a.materializedCSC()
	if c.h != nil {
		c = hyperToStandard(c)
	}
	nrows, ncols, p, i, x = a.nr, a.nc, c.p, c.i, c.x
	a.Clear()
	return
}

// validateCS checks pointer monotonicity and sorted, in-range indices.
func validateCS(nmajor, nminor int, p, h, i []int) error {
	if len(p) == 0 || p[0] != 0 || p[len(p)-1] != len(i) {
		return opErrorf("import", ErrInvalidValue, "malformed pointer array")
	}
	for k := 0; k+1 < len(p); k++ {
		if p[k+1] < p[k] {
			return opErrorf("import", ErrInvalidValue, "pointer array decreases at %d", k)
		}
		prev := -1
		for t := p[k]; t < p[k+1]; t++ {
			if i[t] <= prev || i[t] >= nminor {
				return opErrorf("import", ErrInvalidValue, "index %d out of order or out of range %d", i[t], nminor)
			}
			prev = i[t]
		}
	}
	prev := -1
	for _, hj := range h {
		if hj <= prev || hj >= nmajor {
			return opErrorf("import", ErrInvalidValue, "hyper list entry %d out of order or out of range %d", hj, nmajor)
		}
		prev = hj
	}
	return nil
}
