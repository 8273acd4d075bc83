package grb_test

import (
	"math/rand"
	"testing"

	"lagraph/internal/grb"
	"lagraph/internal/grb/ref"
)

// TestConformanceExtractRoutes drives ExtractMatrix down both of its routes
// — the permuting double bucket pass an injective J takes, and the
// hash-and-sort path a J with duplicates (or dimensions that dwarf the
// work) keeps — against the dense mimic, at one worker and at eight, which
// must agree bit for bit.
func TestConformanceExtractRoutes(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	dupOf := func(idx []int) []int { // idx with its first index repeated
		return append(append([]int(nil), idx...), idx[0])
	}
	type extractCase struct {
		name       string
		a          *grb.Matrix[int64]
		rows, cols []int
		desc       grb.Descriptor
		masked     bool // write through a mask with an accumulator into a non-empty C
	}
	small := randMatrix(rng, 30, 26, 0.3)
	square := randMatrix(rng, 28, 28, 0.3)
	// Enough entries that the row-weighted chunker splits the work.
	big := randMatrix(rng, 320, 320, 2.0)
	// 8×2048 with 20 entries: sweeping the width would dwarf the work.
	wide := randMatrix(rng, 8, 2048, 20.0/(8*2048))
	cases := []extractCase{
		{name: "full-permutation", a: square, rows: rng.Perm(28), cols: rng.Perm(28)},
		{name: "symmetric-permutation-parallel", a: big, rows: rng.Perm(320), cols: rng.Perm(320)},
		{name: "injective-subset", a: small, rows: []int{3, 3, 29, 0, 7}, cols: uniqueIdx(rng, 26, 11)},
		{name: "duplicate-J", a: small, rows: uniqueIdx(rng, 30, 12), cols: dupOf(uniqueIdx(rng, 26, 9))},
		{name: "duplicate-J-parallel", a: big, rows: rng.Perm(320), cols: dupOf(rng.Perm(320))},
		{name: "all-rows", a: small, rows: grb.All, cols: uniqueIdx(rng, 26, 26)},
		{name: "all-cols", a: small, rows: uniqueIdx(rng, 30, 17), cols: grb.All},
		{name: "all-all", a: small, rows: grb.All, cols: grb.All},
		{name: "hypersparse-A", a: heldHyper(randMatrix(rng, 30, 26, 0.04)), rows: grb.All, cols: rng.Perm(26)},
		{name: "hypersparse-A-row-list", a: heldHyper(randMatrix(rng, 30, 26, 0.04)), rows: rng.Perm(30), cols: rng.Perm(26)},
		{name: "TranA", a: small, rows: uniqueIdx(rng, 26, 20), cols: uniqueIdx(rng, 30, 30), desc: grb.Descriptor{TranA: true}},
		{name: "width-dwarfs-work", a: wide, rows: grb.All, cols: uniqueIdx(rng, 2048, 10)},
		{name: "mask+accum", a: square, rows: rng.Perm(28), cols: rng.Perm(28), masked: true},
		{name: "mask+accum+replace", a: square, rows: rng.Perm(28), cols: uniqueIdx(rng, 28, 13), desc: grb.Descriptor{Replace: true, Comp: true}, masked: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ar, ac := tc.a.Nrows(), tc.a.Ncols()
			if tc.desc.TranA {
				ar, ac = ac, ar
			}
			onr, onc := len(tc.rows), len(tc.cols)
			if tc.rows == nil {
				onr = ar
			}
			if tc.cols == nil {
				onc = ac
			}
			c0 := grb.MustMatrix[int64](onr, onc)
			var mask *grb.Matrix[bool]
			var accum grb.BinaryOp[int64, int64, int64]
			if tc.masked {
				c0 = randMatrix(rng, onr, onc, 0.3)
				mask = randBoolMatrix(rng, onr, onc, 0.5)
				accum = grb.Minus[int64]()
			}
			want := ref.FromMatrix(c0)
			var refMask *ref.Mat[bool]
			if mask != nil {
				refMask = ref.FromMatrix(mask)
			}
			ref.Extract(want, refMask, accum, ref.FromMatrix(tc.a), tc.rows, tc.cols, refDesc(tc.desc))

			var got [2]*grb.Matrix[int64]
			for k, p := range []int{1, 8} {
				prev := grb.SetParallelism(p)
				got[k] = c0.Dup()
				err := grb.ExtractMatrix(got[k], mask, accum, tc.a, tc.rows, tc.cols, &tc.desc)
				grb.SetParallelism(prev)
				if err != nil {
					t.Fatal(err)
				}
				eqMat(t, got[k], want)
			}
			mustIdenticalMat(t, "P=8 vs P=1", got[1], got[0])
		})
	}
}
