package grb_test

// Hypersparse conformance: every major operation must produce identical
// results whether its operands are stored standard or hypersparse.

import (
	"fmt"
	"math/rand"
	"testing"

	"lagraph/internal/grb"
	"lagraph/internal/grb/ref"
)

func TestHypersparseConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 6; trial++ {
		m := 5 + rng.Intn(25)
		k := 5 + rng.Intn(25)
		n := 5 + rng.Intn(25)
		a := random(rng, m, k, 0.15, small)
		b := random(rng, k, n, 0.15, small)
		b2 := random(rng, m, k, 0.15, small)
		ah, bh, b2h := held(a, hypersparse), held(b, hypersparse), held(b2, hypersparse)

		t.Run(fmt.Sprintf("t%d/mxm", trial), func(t *testing.T) {
			for _, method := range []grb.MxMMethod{grb.MxMGustavson, grb.MxMDot, grb.MxMHeap} {
				c := grb.MustMatrix[int64](m, n)
				d := grb.Descriptor{Method: method}
				if err := grb.MxM[int64, int64, int64, bool](c, nil, nil, grb.PlusTimes[int64](), ah, bh, &d); err != nil {
					t.Fatal(err)
				}
				want := ref.NewMat[int64](m, n)
				ref.MxM[int64, int64, int64, bool](want, nil, nil, grb.PlusTimes[int64](), ref.FromMatrix(a), ref.FromMatrix(b), ref.Desc{})
				mustMatch[int64](t, "", c, want, byValue)
			}
		})
		t.Run(fmt.Sprintf("t%d/ewise", trial), func(t *testing.T) {
			c := grb.MustMatrix[int64](m, k)
			if err := grb.EWiseAddMatrix[int64, bool](c, nil, nil, grb.Plus[int64](), ah, b2h, nil); err != nil {
				t.Fatal(err)
			}
			want := ref.NewMat[int64](m, k)
			ref.EWiseAddMat[int64, bool](want, nil, nil, grb.Plus[int64](), ref.FromMatrix(a), ref.FromMatrix(b2), ref.Desc{})
			mustMatch[int64](t, "", c, want, byValue)

			// Mixed: one hyper, one standard.
			c2 := grb.MustMatrix[int64](m, k)
			if err := grb.EWiseMultMatrix[int64, int64, int64, bool](c2, nil, nil, grb.Times[int64](), ah, b2, nil); err != nil {
				t.Fatal(err)
			}
			want2 := ref.NewMat[int64](m, k)
			ref.EWiseMultMat[int64, int64, int64, bool](want2, nil, nil, grb.Times[int64](), ref.FromMatrix(a), ref.FromMatrix(b2), ref.Desc{})
			mustMatch[int64](t, "", c2, want2, byValue)
		})
		t.Run(fmt.Sprintf("t%d/transpose-select-apply", trial), func(t *testing.T) {
			c := grb.MustMatrix[int64](k, m)
			if err := grb.Transpose[int64, bool](c, nil, nil, ah, nil); err != nil {
				t.Fatal(err)
			}
			want := ref.NewMat[int64](k, m)
			ref.Transpose[int64, bool](want, nil, nil, ref.FromMatrix(a), ref.Desc{})
			mustMatch[int64](t, "", c, want, byValue)

			s := grb.MustMatrix[int64](m, k)
			if err := grb.SelectMatrix[int64, bool](s, nil, nil, grb.Tril[int64](0), ah, nil); err != nil {
				t.Fatal(err)
			}
			wantS := ref.NewMat[int64](m, k)
			ref.Select[int64, bool](wantS, nil, nil, grb.Tril[int64](0), ref.FromMatrix(a), ref.Desc{})
			mustMatch[int64](t, "", s, wantS, byValue)

			ap := grb.MustMatrix[int64](m, k)
			if err := grb.ApplyMatrix[int64, int64, bool](ap, nil, nil, func(x int64) int64 { return -x }, ah, nil); err != nil {
				t.Fatal(err)
			}
			wantA := ref.NewMat[int64](m, k)
			ref.Apply[int64, int64, bool](wantA, nil, nil, func(x int64) int64 { return -x }, ref.FromMatrix(a), ref.Desc{})
			mustMatch[int64](t, "", ap, wantA, byValue)
		})
		t.Run(fmt.Sprintf("t%d/vxm", trial), func(t *testing.T) {
			u := vecOf(random(rng, 1, m, 0.4, small))
			for _, dir := range []grb.Direction{grb.DirPush, grb.DirPull} {
				w := grb.MustVector[int64](k)
				d := grb.Descriptor{Dir: dir}
				if err := grb.VxM[int64, int64, int64, bool](w, nil, nil, grb.PlusTimes[int64](), u, ah, &d); err != nil {
					t.Fatal(err)
				}
				want := ref.NewVec[int64](k)
				ref.VxM[int64, int64, int64, bool](want, nil, nil, grb.PlusTimes[int64](), ref.FromVector(u), ref.FromMatrix(a), ref.Desc{})
				mustMatch[int64](t, "", w, want, byValue)
			}
		})
		t.Run(fmt.Sprintf("t%d/reduce", trial), func(t *testing.T) {
			w := grb.MustVector[int64](m)
			if err := grb.ReduceMatrixToVector[int64, bool](w, nil, nil, grb.PlusMonoid[int64](), ah, nil); err != nil {
				t.Fatal(err)
			}
			want := ref.NewVec[int64](m)
			ref.ReduceMatToVec[int64, bool](want, nil, nil, grb.PlusMonoid[int64](), ref.FromMatrix(a), ref.Desc{})
			mustMatch[int64](t, "", w, want, byValue)
		})
		t.Run(fmt.Sprintf("t%d/masked-writeback", trial), func(t *testing.T) {
			// Write rule with hyper old value and hyper z.
			cInit := random(rng, m, k, 0.1, small)
			mask := random(rng, m, k, 0.3, small)
			c := held(cInit, hypersparse)
			if err := grb.ApplyMatrix(c, mask, grb.Plus[int64](), func(x int64) int64 { return 10 * x }, ah, &grb.Descriptor{Replace: true}); err != nil {
				t.Fatal(err)
			}
			want := ref.FromMatrix(cInit)
			ref.Apply(want, ref.FromMatrix(mask), grb.Plus[int64](), func(x int64) int64 { return 10 * x }, ref.FromMatrix(a), ref.Desc{Replace: true})
			mustMatch[int64](t, "", c, want, byValue)
		})
	}
}

func TestHypersparseExtractTuplesOrder(t *testing.T) {
	a := grb.MustMatrix[int64](1<<30, 1<<30)
	_ = a.SetElement(1<<29, 3, 1)
	_ = a.SetElement(5, 1<<20, 2)
	_ = a.SetElement(5, 2, 3)
	is, js, xs := a.ExtractTuples()
	if len(is) != 3 {
		t.Fatalf("nvals=%d", len(is))
	}
	if is[0] != 5 || js[0] != 2 || xs[0] != 3 {
		t.Fatal("row-major order broken")
	}
	if is[2] != 1<<29 || js[2] != 3 {
		t.Fatal("large row misplaced")
	}
}
