package grb_test

import (
	"bytes"
	"testing"

	"lagraph/internal/grb"
)

// TestStagedRowsAreOwned: a result whose only non-empty row was staged by
// its kernel adopts that row's arrays instead of copying them, so those
// arrays must be the kernel's own. Each case builds a result with one
// non-empty row — 1×n, 3×n with the middle row the lone one, and 4096×n,
// which is held hypersparse — from eWiseUnion, eWiseMult, a masked mxm
// and extract, then writes into the result (a removal, which tags its
// entry in place, and two stores) and checks that no operand moved; then
// it writes into every operand and checks that the result did not move.
func TestStagedRowsAreOwned(t *testing.T) {
	const n = 48
	rowOf := func(nr, r, stride, off int, scale float64) *grb.Matrix[float64] {
		m := grb.MustMatrix[float64](nr, n)
		for j := off; j < n; j += stride {
			if err := m.SetElement(r, j, scale*float64(j+1)); err != nil {
				t.Fatal(err)
			}
		}
		m.Wait()
		return m
	}
	bytesOf := func(m *grb.Matrix[float64]) []byte {
		var b bytes.Buffer
		if err := grb.SerializeMatrix(&b, m); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	// Each op returns its result and the operands it read.
	ops := map[string]func(nr, r int) (*grb.Matrix[float64], []*grb.Matrix[float64]){
		"ewise-union": func(nr, r int) (*grb.Matrix[float64], []*grb.Matrix[float64]) {
			a, b := rowOf(nr, r, 2, 0, 1), rowOf(nr, r, 3, 0, 0.5)
			c := grb.MustMatrix[float64](nr, n)
			if err := grb.EWiseUnionMatrix[float64, bool](c, nil, nil, grb.Plus[float64](), a, 0, b, 0, nil); err != nil {
				t.Fatal(err)
			}
			return c, []*grb.Matrix[float64]{a, b}
		},
		"ewise-mult": func(nr, r int) (*grb.Matrix[float64], []*grb.Matrix[float64]) {
			a, b := rowOf(nr, r, 2, 0, 1), rowOf(nr, r, 1, 0, 0.5)
			c := grb.MustMatrix[float64](nr, n)
			if err := grb.EWiseMultMatrix[float64, float64, float64, bool](c, nil, nil, grb.Times[float64](), a, b, nil); err != nil {
				t.Fatal(err)
			}
			return c, []*grb.Matrix[float64]{a, b}
		},
		"mxm-masked": func(nr, r int) (*grb.Matrix[float64], []*grb.Matrix[float64]) {
			a, mask := rowOf(nr, r, 5, 1, 1), rowOf(nr, r, 2, 0, 1)
			b := grb.MustMatrix[float64](n, n)
			for i := 0; i < n; i++ {
				_ = b.SetElement(i, i, 2)
				_ = b.SetElement(i, (i+1)%n, 3)
			}
			b.Wait()
			c := grb.MustMatrix[float64](nr, n)
			if err := grb.MxM(c, mask, nil, grb.PlusTimes[float64](), a, b, nil); err != nil {
				t.Fatal(err)
			}
			return c, []*grb.Matrix[float64]{a, mask, b}
		},
		"extract": func(nr, r int) (*grb.Matrix[float64], []*grb.Matrix[float64]) {
			a := rowOf(nr, r, 1, 0, 1)
			c := grb.MustMatrix[float64](nr, n)
			if err := grb.ExtractMatrix[float64, bool](c, nil, nil, a, grb.All, grb.All, nil); err != nil {
				t.Fatal(err)
			}
			return c, []*grb.Matrix[float64]{a}
		},
	}
	for name, op := range ops {
		for _, shape := range [][2]int{{1, 0}, {3, 1}, {1 << 12, 4000}} {
			nr, r := shape[0], shape[1]
			// Writes into the result leave the operands as they were.
			c, operands := op(nr, r)
			if c.Nvals() < 3 {
				t.Fatalf("%s %d×%d: result holds %d entries, too few to write into", name, nr, n, c.Nvals())
			}
			before := make([][]byte, len(operands))
			for k, o := range operands {
				before[k] = bytesOf(o)
			}
			is, js, _ := c.ExtractTuples()
			if err := c.RemoveElement(is[0], js[0]); err != nil {
				t.Fatal(err)
			}
			_ = c.SetElement(is[1], js[1], -1)
			_ = c.SetElement(r, n-1, -2)
			c.Wait()
			for k, o := range operands {
				if !bytes.Equal(bytesOf(o), before[k]) {
					t.Errorf("%s %d×%d: writing into the result changed operand %d", name, nr, n, k)
				}
			}
			// Writes into the operands leave the result as it was.
			c, operands = op(nr, r)
			want := bytesOf(c)
			for _, o := range operands {
				oi, oj, _ := o.ExtractTuples()
				if err := o.RemoveElement(oi[0], oj[0]); err != nil {
					t.Fatal(err)
				}
				_ = o.SetElement(oi[len(oi)-1], oj[len(oj)-1], -3)
				o.Wait()
			}
			if !bytes.Equal(bytesOf(c), want) {
				t.Errorf("%s %d×%d: writing into an operand changed the result", name, nr, n)
			}
		}
	}
}
