package lagraph

import (
	"sort"

	"lagraph/internal/grb"
)

// Maximal cardinality matching on bipartite graphs (§V, [42]) in the
// Azad–Buluç linear-algebraic style: rounds of propose (each unmatched
// row offers to one unmatched column neighbour), resolve (each column
// accepts one proposal) and commit, until no augmenting edge remains.
// The result is maximal (every remaining edge touches a matched vertex),
// not necessarily maximum.

// BipartiteMatching computes a maximal matching of the nrows×ncols
// biadjacency matrix a. It returns rowMate (for each matched row, its
// column) and colMate (the reverse map).
func BipartiteMatching(a *grb.Matrix[float64]) (rowMate, colMate *grb.Vector[int64], err error) {
	defer catch(&err)
	if a == nil {
		return nil, nil, grb.ErrUninitialized
	}
	// rm and cm are the mates under construction, local so an error
	// returns none.
	nr, nc := a.Nrows(), a.Ncols()
	rm, cm := grb.MustVector[int64](nr), grb.MustVector[int64](nc)

	// anyCol: for an unmatched row, pick any unmatched column neighbour.
	// The frontier carries row ids; min tie-breaks column contention.
	minFirst := grb.Semiring[int64, float64, int64]{Add: grb.MinMonoid[int64](), Mul: grb.First[int64, float64]()}

	for round := 0; round <= nr+nc; round++ {
		// rows still unmatched, loaded with their ids.
		unmatchedRows := grb.MustVector[int64](nr)
		try(grb.ApplyIndexVector(unmatchedRows, rm, nil,
			func(_ int64, i, _ int) int64 { return int64(i) }, idVector(nr), grb.DescC))
		if unmatchedRows.Nvals() == 0 {
			return rm, cm, nil
		}
		// proposals(j) = smallest unmatched row adjacent to column j,
		// masked to unmatched columns.
		proposals := grb.MustVector[int64](nc)
		d := &grb.Descriptor{Comp: true, Replace: true}
		try(grb.VxM(proposals, cm, nil, minFirst, unmatchedRows, a, d))
		if proposals.Nvals() == 0 {
			return rm, cm, nil // maximal: no augmenting edge
		}
		// Resolve row contention: a row may win several columns; keep
		// the smallest column per row.
		pj, pr := proposals.ExtractTuples()
		won := map[int64]int{}
		for k := range pj {
			r := pr[k]
			if c, ok := won[r]; !ok || pj[k] < c {
				won[r] = pj[k]
			}
		}
		// Commit in sorted row order: won's keys are distinct, but the
		// mate vectors' pending-tuple buffers must fill in an order
		// independent of map iteration so results serialize identically
		// run to run.
		rows := make([]int64, 0, len(won))
		for r := range won {
			rows = append(rows, r)
		}
		sort.Slice(rows, func(a, b int) bool { return rows[a] < rows[b] })
		for _, r := range rows {
			c := won[r]
			_ = rm.SetElement(int(r), int64(c))
			_ = cm.SetElement(c, r)
		}
	}
	return nil, nil, ErrNoConvergence
}

// idVector returns the dense vector v(i) = i.
func idVector(n int) *grb.Vector[int64] {
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(i)
	}
	return grb.DenseVector(xs)
}

// VerifyMatching checks mate consistency and maximality against the
// biadjacency matrix.
func VerifyMatching(a *grb.Matrix[float64], rowMate, colMate *grb.Vector[int64]) (bool, string) {
	ri, rx := rowMate.ExtractTuples()
	seenCol := map[int64]bool{}
	for k := range ri {
		c := rx[k]
		if seenCol[c] {
			return false, "column matched twice"
		}
		seenCol[c] = true
		if _, err := a.GetElement(ri[k], int(c)); err != nil {
			return false, "matched pair is not an edge"
		}
		back, err := colMate.GetElement(int(c))
		if err != nil || back != int64(ri[k]) {
			return false, "mate vectors inconsistent"
		}
	}
	// Maximality: every edge must touch a matched row or column.
	is, js, _ := a.ExtractTuples()
	rowMatched := map[int]bool{}
	for _, r := range ri {
		rowMatched[r] = true
	}
	for k := range is {
		if !rowMatched[is[k]] && !seenCol[int64(js[k])] {
			return false, "augmenting edge remains"
		}
	}
	return true, ""
}
