package grb

import (
	"fmt"
	"slices"
	"testing"
)

// TestMergeRow checks the write rule's one merge against the rule's
// sentence, case by case: a position held by {old only, z only, both} ×
// admitted by the mask or not × inside the region or not × accumulator ×
// Replace — 48 cases. The position under test sits between two old entries
// outside the region, which every case must carry over untouched and in
// order; the admitted in-region cases run again with no mask and no region
// (nil, nil), where the two flanks are admitted positions z does not reach.
func TestMergeRow(t *testing.T) {
	const at, oldVal, zVal = 5, 10, 3
	plus := func(a, b int) int { return a + b }
	bools := []bool{false, true}
	cases := 0
	for _, held := range []struct{ old, z bool }{{true, false}, {false, true}, {true, true}} {
		for _, admitted := range bools {
			for _, inRegion := range bools {
				for _, accumulate := range bools {
					for _, replace := range bools {
						cases++
						// The sentence: outside the region the previous value
						// stays; an admitted position takes z (combined with
						// the previous value under an accumulator), and where
						// z has nothing keeps its value only under an
						// accumulator; a rejected position keeps its value
						// unless Replace is set.
						val, present := oldVal, held.old
						switch {
						case !inRegion:
						case !admitted:
							present = held.old && !replace
						case held.z && held.old && accumulate:
							val = oldVal + zVal
						case held.z:
							val, present = zVal, true
						default:
							present = held.old && accumulate
						}
						wantI, wantX := []int{2}, []int{-2}
						if present {
							wantI, wantX = append(wantI, at), append(wantX, val)
						}
						wantI, wantX = append(wantI, 8), append(wantX, -8)

						oi, ox := []int{2, 8}, []int{-2, -8}
						if held.old {
							oi, ox = []int{2, at, 8}, []int{-2, oldVal, -8}
						}
						var zi, zx []int
						if held.z {
							zi, zx = []int{at}, []int{zVal}
						}
						var accum BinaryOp[int, int, int]
						if accumulate {
							accum = plus
						}
						last := -1
						allowed := func(j int) bool {
							if j < last || j != at {
								t.Fatalf("mask cursor asked about %d after %d: only in-region positions, ascending", j, last)
							}
							last = j
							return admitted
						}
						region := func(j int) bool { return j == at && inRegion }
						gotI, gotX := mergeRow(nil, nil, oi, ox, zi, zx, allowed, region, accum, replace)
						if !slices.Equal(gotI, wantI) || !slices.Equal(gotX, wantX) {
							t.Errorf("old=%v z=%v admitted=%v inRegion=%v accum=%v replace=%v: got %v %v, want %v %v",
								held.old, held.z, admitted, inRegion, accumulate, replace, gotI, gotX, wantI, wantX)
						}
						if !admitted || !inRegion {
							continue
						}
						// No mask and no region say the same of this position,
						// and now of the flanking two as well: admitted, z has
						// nothing for them, so only an accumulator keeps them.
						if !accumulate {
							wantI, wantX = wantI[1:len(wantI)-1], wantX[1:len(wantX)-1]
						}
						gotI, gotX = mergeRow(nil, nil, oi, ox, zi, zx, nil, nil, accum, replace)
						if !slices.Equal(gotI, wantI) || !slices.Equal(gotX, wantX) {
							t.Errorf("no mask, no region: old=%v z=%v accum=%v replace=%v: got %v %v, want %v %v",
								held.old, held.z, accumulate, replace, gotI, gotX, wantI, wantX)
						}
					}
				}
			}
		}
	}
	if cases != 48 {
		t.Fatalf("%d cases, want 48", cases)
	}
}

// TestMergeRowsHypersparse merges rows at a dimension only hypersparse
// storage can afford to walk by stored row: the result of two hypersparse
// inputs is hypersparse and stores no empty row — not even the row the
// merge emptied — and a hypersparse input against a standard one yields
// standard storage that normalizes to the same rows.
func TestMergeRowsHypersparse(t *testing.T) {
	const n = 1 << 20
	build := func(hyper bool, rows ...int) *cs[int] {
		is, js, xs := make([]int, len(rows)), make([]int, len(rows)), make([]int, len(rows))
		for k, r := range rows {
			is[k], js[k], xs[k] = r, r%7, r
		}
		c, err := assembleCS(n, n, is, js, xs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !hyper {
			c = hyperToStandard(c)
		}
		return c
	}
	// Accumulating, so a row only one side stores survives; row 1000 is
	// dropped by the merge: stored on both sides, empty after.
	plus := func(a, b int) int { return a + b }
	merge := func(row int, ni, nx, oi, ox, zi, zx []int) ([]int, []int) {
		if row == 1000 {
			return ni, nx
		}
		return mergeRow(ni, nx, oi, ox, zi, zx, nil, nil, plus, false)
	}
	wantRows := []int{5, 77, n - 1}
	for _, zHyper := range []bool{true, false} {
		t.Run(fmt.Sprintf("zHyper=%v", zHyper), func(t *testing.T) {
			got := mergeRows(build(true, 5, 1000, n-1), build(zHyper, 5, 77, 1000), merge)
			if (got.h != nil) != zHyper {
				t.Fatalf("hypersparse result = %v, want %v", got.h != nil, zHyper)
			}
			if !zHyper && len(got.p) != n+1 {
				t.Fatalf("standard result has %d row pointers, want %d", len(got.p), n+1)
			}
			a := newMatrixRaw[int](n, n)
			a.setCSR(got)
			c := a.csr
			if !slices.Equal(c.h, wantRows) {
				t.Fatalf("stored rows %v, want %v", c.h, wantRows)
			}
			for k := range c.h {
				if c.p[k+1] <= c.p[k] {
					t.Fatalf("stored row %d is empty", c.h[k])
				}
			}
			if x, err := a.GetElement(5, 5); err != nil || x != 10 {
				t.Fatalf("(5,5) = %v, %v", x, err)
			}
		})
	}
}
