package grb_test

import (
	"fmt"
	"math/rand"
	"testing"

	"lagraph/internal/grb"
	"lagraph/internal/grb/ref"
)

// selectOperand is 320×300 with ~72k entries — past the threshold at which
// eight workers split the count and fill passes into chunks — laid out so
// that every predicate below meets rows it keeps whole (a copy), rows it
// keeps nothing of (a skip; in hypersparse form they leave the row list)
// and rows it keeps in part: rows 0–99 hold positive values only, 100–199
// negative ones, the rest both, and rows 40–49 are empty.
func selectOperand(rng *rand.Rand) *grb.Matrix[int64] {
	const m, n = 320, 300
	var is, js []int
	var xs []int64
	for i := 0; i < m; i++ {
		if i >= 40 && i < 50 {
			continue
		}
		for j := 0; j < n; j++ {
			if rng.Intn(4) == 0 {
				continue
			}
			x := int64(1 + rng.Intn(4))
			if (i >= 100 && i < 200) || (i >= 200 && rng.Intn(2) == 0) {
				x = -x
			}
			is, js, xs = append(is, i), append(js, j), append(xs, x)
		}
	}
	a := grb.MustMatrix[int64](m, n)
	if err := a.Build(is, js, xs, nil); err != nil {
		panic(err)
	}
	return a
}

// matMatches is eqMat as a predicate, so a product of cases can name the
// failing one.
func matMatches(got *grb.Matrix[int64], want *ref.Mat[int64]) bool {
	is, js, xs := got.ExtractTuples()
	n := 0
	for _, row := range want.Set {
		for _, set := range row {
			if set {
				n++
			}
		}
	}
	if got.Nrows() != want.NRows || got.Ncols() != want.NCols || len(is) != n {
		return false
	}
	for k := range is {
		if !want.Set[is[k]][js[k]] || want.Val[is[k]][js[k]] != xs[k] {
			return false
		}
	}
	return true
}

// TestConformanceSelectMatrix: the count → prefix-sum → fill select against
// the mimic, over compressed and hypersparse operands, either orientation,
// index and value predicates, the whole write-rule table, at 1 and at 8
// workers.
func TestConformanceSelectMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(1908))
	a := selectOperand(rng)
	m, n := a.Nrows(), a.Ncols()
	preds := []struct {
		name string
		keep grb.IndexUnaryOp[int64, bool]
	}{
		{"tril", grb.Tril[int64](0)},
		{"offdiag", grb.OffDiag[int64]()},
		{"positive", grb.ValueGT[int64](0)},
		{"none", grb.ValueGT[int64](9)},
	}
	for _, form := range []string{"standard", "hyper"} {
		op := inForm(a, form)
		for _, tran := range []bool{false, true} {
			cr, cc := m, n
			if tran {
				cr, cc = n, m
			}
			c0 := randMatrix(rng, cr, cc, 0.3)
			mask := randBoolMatrix(rng, cr, cc, 0.5)
			rmask := ref.FromMatrix(mask)
			ra := ref.FromMatrix(a)
			for _, pred := range preds {
				for _, mc := range writeCases() {
					for _, accum := range []grb.BinaryOp[int64, int64, int64]{nil, grb.Plus[int64]()} {
						d := mc.desc
						d.TranA = tran
						var gm *grb.Matrix[bool]
						var rm *ref.Mat[bool]
						if mc.useMask {
							gm, rm = mask, rmask
						}
						want := ref.FromMatrix(c0)
						ref.Select(want, rm, accum, pred.keep, ra, refDesc(d))
						for _, p := range []int{1, 8} {
							name := fmt.Sprintf("%v/tran=%v/%s/%s/accum=%v/P=%d", form, tran, pred.name, mc.name, accum != nil, p)
							old := grb.SetParallelism(p)
							got := c0.Dup()
							err := grb.SelectMatrix(got, gm, accum, pred.keep, op, &d)
							grb.SetParallelism(old)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							if !matMatches(got, want) {
								t.Fatalf("%s: differs from the mimic", name)
							}
						}
					}
				}
			}
		}
	}
}

// TestSelectMatrixHypersparseShape: a hypersparse operand yields a result
// that lists exactly the rows that kept something, and an empty one when
// nothing is kept: embedded in a 2^30 id space, it equals the compact one.
func TestSelectMatrixHypersparseShape(t *testing.T) {
	const stride = 1 << 24
	const m = 64
	rng := rand.New(rand.NewSource(1909))
	big := grb.MustMatrix[int64](m*stride, m*stride)
	small := grb.MustMatrix[int64](m, m)
	for k := 0; k < 900; k++ {
		i, j, x := rng.Intn(m), rng.Intn(m), int64(rng.Intn(9)-4)
		_ = small.SetElement(i, j, x)
		_ = big.SetElement(i*stride, j*stride, x)
	}
	for _, keep := range []grb.IndexUnaryOp[int64, bool]{grb.ValueGT[int64](2), grb.ValueGT[int64](9), grb.OffDiag[int64]()} {
		cs := grb.MustMatrix[int64](m, m)
		if err := grb.SelectMatrix[int64, bool](cs, nil, nil, keep, small, nil); err != nil {
			t.Fatal(err)
		}
		cb := grb.MustMatrix[int64](m*stride, m*stride)
		if err := grb.SelectMatrix[int64, bool](cb, nil, nil, keep, big, nil); err != nil {
			t.Fatal(err)
		}
		si, sj, sx := cs.ExtractTuples()
		bi, bj, bx := cb.ExtractTuples()
		if len(si) != len(bi) {
			t.Fatalf("%d entries embedded, %d compact", len(bi), len(si))
		}
		for k := range si {
			if bi[k] != si[k]*stride || bj[k] != sj[k]*stride || bx[k] != sx[k] {
				t.Fatalf("entry %d: (%d,%d,%d) embedded, (%d,%d,%d) compact", k, bi[k], bj[k], bx[k], si[k], sj[k], sx[k])
			}
		}
	}
}
