package grb_test

import (
	"fmt"
	"math/rand"
	"testing"

	"lagraph/internal/grb"
	"lagraph/internal/grb/ref"
	"lagraph/internal/obs"
)

// TestLaneCapWidths: whether an accumulator fits in lanes has one answer,
// the dense-form cap. An output up to BitmapMaxCells wide scatters into
// lanes, in the push and in an unmasked MxM, and one column wider takes the
// heap merge. Each row is a narrow product spread over the last columns of
// the row's width, checked against the mimic of the narrow product and asked
// its route: the push hands its accumulator over as the result's lanes
// (write route "dense", result dense-held) while lanes fit; MxM's op record
// names Gustavson while lanes fit and the heap past the cap.
func TestLaneCapWidths(t *testing.T) {
	for _, width := range []int{1<<15 - 1, 1 << 15, 1 << 16, grb.BitmapMaxCells, grb.BitmapMaxCells + 1} {
		lanes := width <= grb.BitmapMaxCells
		rng := rand.New(rand.NewSource(int64(width)))

		t.Run(fmt.Sprintf("push/%d", width), func(t *testing.T) {
			// One frontier entry whose row reaches the last ⌈width/8⌉
			// columns: the promotion bar, so fitting lanes are handed over.
			ns := (width + 7) / 8
			narrow := grb.MustMatrix[int64](1, ns)
			for j := 0; j < ns; j++ {
				_ = narrow.SetElement(0, j, int64(1+rng.Intn(9)))
			}
			u := grb.MustVector[int64](1)
			_ = u.SetElement(0, 3)
			want := ref.NewVec[int64](ns)
			ref.VxM[int64, int64, int64, bool](want, nil, nil, grb.PlusTimes[int64](), ref.FromVector(u), ref.FromMatrix(narrow), ref.Desc{})

			trace := obs.NewTrace(1)
			restore := obs.Set(trace)
			w := grb.MustVector[int64](width)
			err := grb.VxM[int64, int64, int64, bool](w, nil, nil, grb.PlusTimes[int64](), u, widened(narrow, width, width-narrow.Ncols()), &grb.Descriptor{Dir: grb.DirPush})
			obs.Set(restore)
			must(t, err)
			op := trace.Ops()[0]
			if dense, _ := w.Forms(); op.Kernel != "push" || (op.Write == "dense") != lanes || dense != lanes {
				t.Fatalf("op record %+v, result dense-held %v: want lanes handed over = %v", op, dense, lanes)
			}
			wi, wx := w.ExtractTuples()
			for k, j := range wi {
				if jn := j - (width - ns); jn < 0 || !want.Set[jn] || wx[k] != want.Val[jn] {
					t.Fatalf("w(%d) = %d, not the mimic's", j, wx[k])
				}
			}
			if len(wi) != ns {
				t.Fatalf("%d entries, the mimic has %d", len(wi), ns)
			}
		})

		t.Run(fmt.Sprintf("mxm/%d", width), func(t *testing.T) {
			// A's rows hold four entries (past the heap's short-row case);
			// B spreads over its last 64 columns.
			const m, k, nb = 4, 8, 64
			a := grb.MustMatrix[int64](m, k)
			for i := 0; i < m; i++ {
				for _, c := range rng.Perm(k)[:4] {
					_ = a.SetElement(i, c, int64(rng.Intn(9)-4))
				}
			}
			narrow := random(rng, k, nb, 0.15, small)
			want := ref.NewMat[int64](m, nb)
			ref.MxM[int64, int64, int64, bool](want, nil, nil, grb.PlusTimes[int64](), ref.FromMatrix(a), ref.FromMatrix(narrow), ref.Desc{})

			trace := obs.NewTrace(1)
			restore := obs.Set(trace)
			c := grb.MustMatrix[int64](m, width)
			err := grb.MxM[int64, int64, int64, bool](c, nil, nil, grb.PlusTimes[int64](), a, widened(narrow, width, width-narrow.Ncols()), nil)
			obs.Set(restore)
			must(t, err)
			kernel := map[bool]string{true: "gustavson", false: "heap"}[lanes]
			if op := trace.Ops()[0]; op.Kernel != kernel || op.Policy != "static" {
				t.Fatalf("op record %+v: want %s", op, kernel)
			}
			is, js, xs := c.ExtractTuples()
			n := 0
			for i := range want.Set {
				for j, set := range want.Set[i] {
					if !set {
						continue
					}
					if n == len(is) || is[n] != i || js[n] != width-nb+j || xs[n] != want.Val[i][j] {
						t.Fatalf("entry %d differs from the mimic's C(%d,%d) = %d", n, i, j, want.Val[i][j])
					}
					n++
				}
			}
			if n != len(is) {
				t.Fatalf("%d entries, the mimic has %d", len(is), n)
			}
		})
	}
}
