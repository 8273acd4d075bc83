package grb_test

// Third conformance wave: vector-level apply / select / extract / assign
// under all mask configurations and with accumulators.

import (
	"fmt"
	"math/rand"
	"testing"

	"lagraph/internal/grb"
	"lagraph/internal/grb/ref"
)

func TestConformanceVectorOps(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(40)
		u := randVector(rng, n, 0.4)
		mask := randVector(rng, n, 0.5)
		wInit := randVector(rng, n, 0.3)
		idx := uniqueIdx(rng, n, 1+rng.Intn(n))
		for _, mc := range maskCases() {
			for _, withAccum := range []bool{false, true} {
				var accum grb.BinaryOp[int64, int64, int64]
				if withAccum {
					accum = grb.Plus[int64]()
				}
				var gm *grb.Vector[int64]
				var rm *ref.Vec[int64]
				if mc.useMask {
					gm = mask
					rm = ref.FromVector(mask)
				}
				d := mc.desc
				suffix := fmt.Sprintf("t%d/%s/accum=%v", trial, mc.name, withAccum)

				t.Run("apply/"+suffix, func(t *testing.T) {
					w := wInit.Dup()
					neg := func(x int64) int64 { return -x }
					if err := grb.ApplyVector(w, gm, accum, neg, u, &d); err != nil {
						t.Fatal(err)
					}
					want := ref.FromVector(wInit)
					ref.ApplyVec(want, rm, accum, neg, ref.FromVector(u), refDesc(d))
					eqVec(t, w, want)
				})

				t.Run("select/"+suffix, func(t *testing.T) {
					w := wInit.Dup()
					keep := grb.ValueGT(int64(0))
					if err := grb.SelectVector(w, gm, accum, keep, u, &d); err != nil {
						t.Fatal(err)
					}
					want := ref.FromVector(wInit)
					ref.SelectVec(want, rm, accum, keep, ref.FromVector(u), refDesc(d))
					eqVec(t, w, want)
				})

				t.Run("extract-all/"+suffix, func(t *testing.T) {
					w := wInit.Dup()
					if err := grb.ExtractVector(w, gm, accum, u, grb.All, &d); err != nil {
						t.Fatal(err)
					}
					want := ref.FromVector(wInit)
					ref.ExtractVec(want, rm, accum, ref.FromVector(u), nil, refDesc(d))
					eqVec(t, w, want)
				})

				if !mc.desc.Replace {
					t.Run("assign/"+suffix, func(t *testing.T) {
						sub := randVector(rng, len(idx), 0.5)
						w := wInit.Dup()
						if err := grb.AssignVector(w, gm, accum, sub, idx, &d); err != nil {
							t.Fatal(err)
						}
						want := ref.FromVector(wInit)
						ref.AssignVec(want, rm, accum, ref.FromVector(sub), idx, refDesc(d))
						eqVec(t, w, want)
					})
					// A repeated index takes its last value, present or not.
					t.Run("assign-dup/"+suffix, func(t *testing.T) {
						dup := append(append([]int(nil), idx...), idx[0], idx[len(idx)-1])
						sub := randVector(rand.New(rand.NewSource(int64(trial))), len(dup), 0.5)
						w := wInit.Dup()
						if err := grb.AssignVector(w, gm, accum, sub, dup, &d); err != nil {
							t.Fatal(err)
						}
						want := ref.FromVector(wInit)
						ref.AssignVec(want, rm, accum, ref.FromVector(sub), dup, refDesc(d))
						eqVec(t, w, want)
					})
				}
			}
		}

		// Extract with an index list (shape change: no masks to keep the
		// output dimension simple).
		t.Run(fmt.Sprintf("t%d/extract-idx", trial), func(t *testing.T) {
			w := grb.MustVector[int64](len(idx))
			if err := grb.ExtractVector[int64, bool](w, nil, nil, u, idx, nil); err != nil {
				t.Fatal(err)
			}
			want := ref.NewVec[int64](len(idx))
			ref.ExtractVec[int64, bool](want, nil, nil, ref.FromVector(u), idx, ref.Desc{})
			eqVec(t, w, want)
		})
	}
}
