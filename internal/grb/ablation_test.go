package grb_test

// Storage-form ablations (DESIGN.md "Storage forms"). Each pair runs one
// operation with the dense form open (On) and on the wide twin (Off): a
// 1×(BitmapMaxCells+1) matrix whose entries sit in its first n columns,
// which lies past the dense cell cap and so never takes the dense form.

import (
	"math"
	"testing"

	"lagraph/internal/grb"
)

// The write-rule ablation (A4): one traversal level's `paths += frontier`
// — a 256-entry update accumulated into the first 16384 columns of a
// half-full row — with the in-place route open (a 1×16384 output is
// promoted to the dense form and the update scattered into it,
// O(nnz(update))) and closed (the wide output has no dense form, so every
// write merges all of C into fresh arrays, O(nnz(C))). The pair is the
// per-level cost difference DESIGN.md's "Storage forms" describes.
func benchWriteRuleInPlace(b *testing.B, ncols int) {
	const n, frontier = 1 << 14, 256
	paths := grb.MustMatrix[float64](1, ncols)
	for j := 0; j < n; j += 2 {
		_ = paths.SetElement(0, j, 1)
	}
	paths.Wait()
	update := grb.MustMatrix[float64](1, ncols)
	for k := 0; k < frontier; k++ {
		_ = update.SetElement(0, (k*61)%n, 1)
	}
	update.Wait()
	plus := grb.Plus[float64]()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := grb.AssignMatrix[float64, bool](paths, nil, plus, update, grb.All, grb.All, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if dense, _ := paths.Forms(); dense != (ncols == n) {
		b.Fatalf("output dense-held = %v with %d columns", dense, ncols)
	}
}

func BenchmarkAblation_WriteRuleInPlace_On(b *testing.B) {
	benchWriteRuleInPlace(b, 1<<14)
}

func BenchmarkAblation_WriteRuleInPlace_Off(b *testing.B) {
	benchWriteRuleInPlace(b, grb.BitmapMaxCells+1)
}

// The dense-result-route ablation (A5): one FastSV iteration's
// `f = min(f, mngp)` over 16 384 vertices, both operands holding every
// entry. On: vectors, whose element-wise kernel is one pass over pooled
// lanes that f then adopts. Off: the same operation on wide twins, which
// have no dense form, so it runs the sorted-merge kernel into fresh index
// and value arrays — what every full-vector grb call cost before the route.
func BenchmarkAblation_DenseResultRoute_On(b *testing.B) {
	const n = 1 << 14
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
	}
	f, mngp := grb.DenseVector(ids), grb.DenseVector(ids)
	minOp := grb.MinOp[int64]()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := grb.EWiseAddVector[int64, bool](f, nil, nil, minOp, f, mngp, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_DenseResultRoute_Off(b *testing.B) {
	const n = 1 << 14
	f, mngp := wideTwin[int64](), wideTwin[int64]()
	for _, m := range []*grb.Matrix[int64]{f, mngp} {
		for j := 0; j < n; j++ {
			_ = m.SetElement(0, j, int64(j))
		}
		m.Wait()
	}
	minOp := grb.MinOp[int64]()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := grb.EWiseAddMatrix[int64, bool](f, nil, nil, minOp, f, mngp, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if dense, _ := f.Forms(); dense {
		b.Fatal("the wide twin took the dense form")
	}
}

// The lane-arithmetic ablation (A8): one PageRank iteration on a 128×128
// lattice — out = r ⊗ 1/deg, w = Aᵀ plus.second out, r = base, r += d·w,
// t = |t − r|, ‖t‖₁ — with the built-in semiring and monoid (On: the dense
// pull and the reduction run their tagged loops) against their
// composite-literal twins (Off: the generic loops, which call Add.Op and
// Mul per product and Op per reduced entry). The lane passes between them
// call the iteration's own operators in both arms.
func benchLaneArithmetic(b *testing.B, tagged bool) {
	const side, damping = 128, 0.85
	n := side * side
	a := grb.MustMatrix[float64](n, n)
	deg := make([]float64, n)
	for i := 0; i < n; i++ {
		r, c := i/side, i%side
		for _, nb := range [][2]int{{r - 1, c}, {r + 1, c}, {r, c - 1}, {r, c + 1}} {
			if nb[0] >= 0 && nb[0] < side && nb[1] >= 0 && nb[1] < side {
				_ = a.SetElement(i, nb[0]*side+nb[1], 1)
				deg[i]++
			}
		}
	}
	a.Wait()
	rank := make([]float64, n)
	for i := range deg {
		deg[i], rank[i] = 1/deg[i], 1/float64(n)
	}
	plusSecond, sum := grb.PlusSecond[float64](), grb.PlusMonoid[float64]()
	if !tagged {
		sum = grb.Monoid[float64]{Op: sum.Op, Identity: sum.Identity}
		plusSecond = grb.Semiring[float64, float64, float64]{Add: sum, Mul: grb.Second[float64, float64]()}
	}
	r, t, invOut := grb.DenseVector(rank), grb.DenseVector(rank), grb.DenseVector(deg)
	out, w := grb.MustVector[float64](n), grb.MustVector[float64](n)
	plus, times := grb.Plus[float64](), grb.Times[float64]()
	scale := func(x float64) float64 { return damping * x }
	absDiff := func(x, y float64) float64 { return math.Abs(x - y) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := grb.EWiseMultVector[float64, float64, float64, bool](out, nil, nil, times, r, invOut, nil); err != nil {
			b.Fatal(err)
		}
		if err := grb.MxV(w, (*grb.Vector[bool])(nil), nil, plusSecond, a, out, grb.DescT0); err != nil {
			b.Fatal(err)
		}
		r, t = t, r
		if err := grb.AssignVectorScalar[float64, bool](r, nil, nil, (1-damping)/float64(n), grb.All, nil); err != nil {
			b.Fatal(err)
		}
		if err := grb.ApplyVector[float64, float64, bool](r, nil, plus, scale, w, nil); err != nil {
			b.Fatal(err)
		}
		if err := grb.EWiseAddVector[float64, bool](t, nil, nil, absDiff, t, r, nil); err != nil {
			b.Fatal(err)
		}
		if _, err := grb.ReduceVectorToScalar(sum, t); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_LaneArithmetic_On(b *testing.B)  { benchLaneArithmetic(b, true) }
func BenchmarkAblation_LaneArithmetic_Off(b *testing.B) { benchLaneArithmetic(b, false) }
