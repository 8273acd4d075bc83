package grb

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"lagraph/internal/obs"
)

// Cross-parallelism determinism on skewed inputs: every kernel that was
// parallelized or re-partitioned by the work-aware scheduler must produce
// bitwise-identical output at SetParallelism(1) and SetParallelism(8).
// float64 with PlusTimes is the stress case — floating-point addition is
// not associative, so any partitioning that depends on the worker count
// shows up as a value mismatch, not just an ordering one.

// skewedMatrix builds an n×n float64 matrix with power-law-style row
// degrees (row r holds ~n/(r+1) entries): the input on which equal-count
// partitioning collapses onto the hub rows.
func skewedMatrix(tb testing.TB, n, seed int) *Matrix[float64] {
	tb.Helper()
	rng := rand.New(rand.NewSource(int64(seed)))
	var is, js []int
	var xs []float64
	for r := 0; r < n; r++ {
		deg := n/(r+1) + 1
		if deg > n {
			deg = n
		}
		for d := 0; d < deg; d++ {
			is = append(is, r)
			js = append(js, rng.Intn(n))
			xs = append(xs, rng.Float64()*2-1)
		}
	}
	a := MustMatrix[float64](n, n)
	if err := a.Build(is, js, xs, Plus[float64]()); err != nil {
		tb.Fatal(err)
	}
	return a
}

func matricesIdentical(tb testing.TB, what string, x, y *Matrix[float64]) {
	tb.Helper()
	xi, xj, xv := x.ExtractTuples()
	yi, yj, yv := y.ExtractTuples()
	if len(xi) != len(yi) {
		tb.Fatalf("%s: nvals %d vs %d across worker counts", what, len(xi), len(yi))
	}
	for k := range xi {
		if xi[k] != yi[k] || xj[k] != yj[k] || xv[k] != yv[k] {
			tb.Fatalf("%s: entry %d differs across worker counts: (%d,%d,%v) vs (%d,%d,%v)",
				what, k, xi[k], xj[k], xv[k], yi[k], yj[k], yv[k])
		}
	}
}

func vectorsIdentical(tb testing.TB, what string, x, y *Vector[float64]) {
	tb.Helper()
	xi, xv := x.ExtractTuples()
	yi, yv := y.ExtractTuples()
	if len(xi) != len(yi) {
		tb.Fatalf("%s: nvals %d vs %d across worker counts", what, len(xi), len(yi))
	}
	for k := range xi {
		if xi[k] != yi[k] || xv[k] != yv[k] {
			tb.Fatalf("%s: entry %d differs across worker counts: (%d,%v) vs (%d,%v)",
				what, k, xi[k], xv[k], yi[k], yv[k])
		}
	}
}

// atParallelism runs f at the given worker bound and restores the old one.
func atParallelism(n int, f func()) {
	old := SetParallelism(n)
	defer SetParallelism(old)
	f()
}

func TestSkewedMxMDeterminism(t *testing.T) {
	a := skewedMatrix(t, 900, 1)
	b := skewedMatrix(t, 900, 2)
	mask := skewedMatrix(t, 900, 3)
	for _, tc := range []struct {
		name   string
		method MxMMethod
		masked bool
	}{
		{"gustavson", MxMGustavson, false},
		{"gustavson-masked", MxMGustavson, true},
		{"dot-masked", MxMDot, true},
		{"heap", MxMHeap, false},
	} {
		run := func() *Matrix[float64] {
			c := MustMatrix[float64](900, 900)
			var m *Matrix[float64]
			if tc.masked {
				m = mask
			}
			if err := MxM(c, m, nil, PlusTimes[float64](), a, b, &Descriptor{Method: tc.method}); err != nil {
				t.Fatal(err)
			}
			return c
		}
		var c1, c8 *Matrix[float64]
		atParallelism(1, func() { c1 = run() })
		atParallelism(8, func() { c8 = run() })
		matricesIdentical(t, "mxm/"+tc.name, c1, c8)
	}
}

func TestSkewedPushDeterminism(t *testing.T) {
	n := 1500
	a := skewedMatrix(t, n, 4)
	u := MustVector[float64](n)
	for i := 0; i < n; i += 2 { // half-dense frontier crossing the hubs
		_ = u.SetElement(i, float64(i%13)+0.25)
	}
	u.Wait()
	run := func(dir Direction) *Vector[float64] {
		w := MustVector[float64](n)
		if err := VxM(w, (*Vector[bool])(nil), nil, PlusTimes[float64](), u, a, &Descriptor{Dir: dir}); err != nil {
			t.Fatal(err)
		}
		return w
	}
	var p1, p8 *Vector[float64]
	atParallelism(1, func() { p1 = run(DirPush) })
	atParallelism(8, func() { p8 = run(DirPush) })
	vectorsIdentical(t, "vxm/push", p1, p8)

	atParallelism(1, func() { p1 = run(DirPull) })
	atParallelism(8, func() { p8 = run(DirPull) })
	vectorsIdentical(t, "vxm/pull", p1, p8)

	// Masked pull: the sparse-mask target path.
	mask := MustVector[bool](n)
	for i := 0; i < n; i += 3 {
		_ = mask.SetElement(i, true)
	}
	mask.Wait()
	runMasked := func() *Vector[float64] {
		w := MustVector[float64](n)
		if err := VxM(w, mask, nil, PlusTimes[float64](), u, a, &Descriptor{Dir: DirPull}); err != nil {
			t.Fatal(err)
		}
		return w
	}
	atParallelism(1, func() { p1 = runMasked() })
	atParallelism(8, func() { p8 = runMasked() })
	vectorsIdentical(t, "vxm/pull-masked", p1, p8)
}

// TestSkewedWidePushDeterminism drives a skewed frontier of 32 768 rows, whose
// work is chunked, into 2¹⁵ output columns, which scatter into lanes chunk
// by chunk, and into one column past the lane cap, where the frontier is
// one heap row: P=1 ≡ P=8 bitwise in both, and the op record's chunk count
// names the route.
func TestSkewedWidePushDeterminism(t *testing.T) {
	const m = 1 << 15
	for _, tc := range []struct {
		name   string
		n      int
		chunks func(int) bool
	}{
		{"lanes-2^15", 1 << 15, func(c int) bool { return c >= 2 }},
		{"heap-past-cap", bitmapMaxCells + 1, func(c int) bool { return c == 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			a := MustMatrix[float64](m, tc.n)
			var is, js []int
			var xs []float64
			for r := 0; r < 600; r++ {
				row := rng.Intn(m)
				deg := 8000/(r+1) + 40
				for d := 0; d < deg; d++ {
					is = append(is, row)
					js = append(js, rng.Intn(tc.n))
					xs = append(xs, rng.Float64())
				}
			}
			if err := a.Build(is, js, xs, Plus[float64]()); err != nil {
				t.Fatal(err)
			}
			u := MustVector[float64](m)
			for _, r := range is { // frontier covering every stored row
				_ = u.SetElement(r, 1.5)
			}
			u.Wait()
			run := func() *Vector[float64] {
				trace := obs.NewTrace(1)
				restore := obs.Set(trace)
				w := MustVector[float64](tc.n)
				err := VxM(w, (*Vector[bool])(nil), nil, PlusTimes[float64](), u, a, &Descriptor{Dir: DirPush})
				obs.Set(restore)
				if err != nil {
					t.Fatal(err)
				}
				if op := trace.Ops()[0]; !tc.chunks(op.Chunks) {
					t.Fatalf("op record %+v: the push took the other route", op)
				}
				return w
			}
			var p1, p8 *Vector[float64]
			atParallelism(1, func() { p1 = run() })
			atParallelism(8, func() { p8 = run() })
			vectorsIdentical(t, "vxm/push/"+tc.name, p1, p8)
		})
	}
}

func TestSkewedTransposeDeterminism(t *testing.T) {
	a := skewedMatrix(t, 2500, 5) // ~2500·ln(2500) ≈ 20k entries > transposeParallelMin
	if a.Nvals() < transposeParallelMin {
		t.Fatalf("test input too small to exercise the parallel transpose: %d", a.Nvals())
	}
	run := func() *Matrix[float64] {
		c := MustMatrix[float64](2500, 2500)
		if err := Transpose[float64, bool](c, nil, nil, a, nil); err != nil {
			t.Fatal(err)
		}
		return c
	}
	var c1, c8 *Matrix[float64]
	atParallelism(1, func() { c1 = run() })
	atParallelism(8, func() { c8 = run() })
	matricesIdentical(t, "transpose", c1, c8)
}

func TestSkewedAssemblyDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 3000
	e := 24576
	is := make([]int, e)
	js := make([]int, e)
	xs := make([]float64, e)
	for k := range is {
		is[k] = rng.Intn(n) * rng.Intn(2) // duplicate-heavy, skewed to row 0
		js[k] = rng.Intn(n)
		xs[k] = rng.Float64()
	}

	build := func() *Matrix[float64] {
		a := MustMatrix[float64](n, n)
		if err := a.Build(is, js, xs, Plus[float64]()); err != nil {
			t.Fatal(err)
		}
		return a
	}
	var a1, a8 *Matrix[float64]
	atParallelism(1, func() { a1 = build() })
	atParallelism(8, func() { a8 = build() })
	matricesIdentical(t, "build", a1, a8)

	// Pending-tuple merge into an existing matrix (the Wait slow path).
	merge := func() *Matrix[float64] {
		a := build()
		for k := 0; k < e; k++ {
			if err := a.MergeElement(js[k], is[k], xs[k], Plus[float64]()); err != nil {
				t.Fatal(err)
			}
		}
		a.Wait()
		return a
	}
	atParallelism(1, func() { a1 = merge() })
	atParallelism(8, func() { a8 = merge() })
	matricesIdentical(t, "wait-merge", a1, a8)

	// Vector pending-tuple assembly.
	vbuild := func() *Vector[float64] {
		v := MustVector[float64](n)
		for k := 0; k < e; k++ {
			_ = v.SetElement(is[k], xs[k])
		}
		v.Wait()
		return v
	}
	var v1, v8 *Vector[float64]
	atParallelism(1, func() { v1 = vbuild() })
	atParallelism(8, func() { v8 = vbuild() })
	vectorsIdentical(t, "vector-wait", v1, v8)
}

func TestSkewedKroneckerDeterminism(t *testing.T) {
	a := skewedMatrix(t, 80, 8)
	b := skewedMatrix(t, 60, 9)
	run := func() *Matrix[float64] {
		c := MustMatrix[float64](80*60, 80*60)
		if err := Kronecker[float64, float64, float64, bool](c, nil, nil, Times[float64](), a, b, nil); err != nil {
			t.Fatal(err)
		}
		return c
	}
	var c1, c8 *Matrix[float64]
	atParallelism(1, func() { c1 = run() })
	atParallelism(8, func() { c8 = run() })
	matricesIdentical(t, "kronecker", c1, c8)
}

// TestKroneckerMatchesElementwise pins the direct-CSR Kronecker emission
// against a brute-force per-element reference.
func TestKroneckerMatchesElementwise(t *testing.T) {
	a := skewedMatrix(t, 17, 10)
	b := skewedMatrix(t, 11, 11)
	c := MustMatrix[float64](17*11, 17*11)
	if err := Kronecker[float64, float64, float64, bool](c, nil, nil, Times[float64](), a, b, nil); err != nil {
		t.Fatal(err)
	}
	ref := MustMatrix[float64](17*11, 17*11)
	ai, aj, ax := a.ExtractTuples()
	bi, bj, bx := b.ExtractTuples()
	for p := range ai {
		for q := range bi {
			if err := ref.SetElement(ai[p]*11+bi[q], aj[p]*11+bj[q], ax[p]*bx[q]); err != nil {
				t.Fatal(err)
			}
		}
	}
	ref.Wait()
	matricesIdentical(t, "kronecker-vs-reference", c, ref)
}

// TestWorkChunksInvariants pins the contract the deterministic kernels
// rely on: boundaries cover [0,n) monotonically, never depend on the
// worker count, and a single huge element lands alone in its chunk.
func TestWorkChunksInvariants(t *testing.T) {
	weights := make([]int, 100)
	for k := range weights {
		weights[k] = 1
	}
	weights[40] = 100000 // hub
	wf := func(k int) int { return weights[k] }

	var b1, b8 [][]int
	atParallelism(1, func() { b1 = append(b1, workChunks(100, wf, 64, 16)) })
	atParallelism(8, func() { b8 = append(b8, workChunks(100, wf, 64, 16)) })
	bounds := b1[0]
	if len(bounds) != len(b8[0]) {
		t.Fatal("workChunks boundaries depend on worker count")
	}
	for k := range bounds {
		if bounds[k] != b8[0][k] {
			t.Fatal("workChunks boundaries depend on worker count")
		}
	}
	if bounds[0] != 0 || bounds[len(bounds)-1] != 100 {
		t.Fatalf("bounds do not cover the range: %v", bounds)
	}
	for k := 1; k < len(bounds); k++ {
		if bounds[k] <= bounds[k-1] {
			t.Fatalf("bounds not strictly increasing: %v", bounds)
		}
	}
	// The hub element must be alone in its chunk: every other chunk holds
	// a negligible share of the weight.
	for k := 0; k+1 < len(bounds); k++ {
		if bounds[k] <= 40 && 40 < bounds[k+1] && bounds[k+1]-bounds[k] > 1 {
			// The hub may only share a chunk if it sits at a boundary edge
			// that could not be cut tighter; with these weights it must be
			// isolated on at least one side.
			if bounds[k] < 40 && bounds[k+1] > 41 {
				t.Fatalf("hub not isolated by work splitting: %v", bounds)
			}
		}
	}
	// Zero-work input: single chunk.
	b := workChunks(50, func(int) int { return 0 }, 64, 16)
	if len(b) != 2 || b[0] != 0 || b[1] != 50 {
		t.Fatalf("zero-weight input should yield one chunk, got %v", b)
	}
}

// TestRowChunksMatchWorkChunks: the bounds a pull reads off its row
// pointers are the ones workChunks finds by weighing each row its entries
// plus one — over empty rows, a single heavy row, totals either side of
// seqFallbackWork, and row pointers that do not start at zero.
func TestRowChunksMatchWorkChunks(t *testing.T) {
	// uniform spreads total weight over n rows, the remainder on the last.
	uniform := func(n, total int) []int {
		counts := make([]int, n)
		for k := range counts {
			counts[k] = (total - n) / n
		}
		counts[n-1] += (total - n) % n
		return counts
	}
	cases := map[string][]int{"no rows": nil, "all rows empty": make([]int, seqFallbackWork+3)}
	gaps := uniform(4096, 1<<18)
	for k := range gaps {
		if k%3 != 0 {
			gaps[k] = 0
		}
	}
	cases["empty rows between full ones"] = gaps
	heavy := uniform(100, 200)
	heavy[40] = 100000
	cases["one heavy row"] = heavy
	for _, d := range []int{-1, 0, 1} {
		cases[fmt.Sprintf("total seqFallbackWork%+d", d)] = uniform(1000, seqFallbackWork+d)
	}
	split := false
	for name, counts := range cases {
		for _, start := range []int{0, 7} {
			p := make([]int, len(counts)+1)
			p[0] = start
			for k, c := range counts {
				p[k+1] = p[k] + c
			}
			weight := func(k int) int { return p[k+1] - p[k] + 1 }
			for _, quantum := range []int{1, pullWorkQuantum} {
				for _, maxChunks := range []int{1, 8, 64} {
					got, want := rowChunks(p, quantum, maxChunks), workChunks(len(counts), weight, quantum, maxChunks)
					if !slices.Equal(got, want) {
						t.Fatalf("%s from %d, quantum %d, %d chunks: rowChunks %v, workChunks %v", name, start, quantum, maxChunks, got, want)
					}
					split = split || len(got) > 2
				}
			}
		}
	}
	if !split {
		t.Fatal("no case was split into chunks")
	}
}

// TestDensePullAllocates: an untraced dense pull — PageRank's mxv — makes
// as many allocations at n = 16 384 as at n = 4 096, at one worker and
// chunked at eight: none per row.
func TestDensePullAllocates(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes allocation counts unrepeatable")
	}
	allocs := func(n, p int) float64 {
		defer SetParallelism(SetParallelism(p))
		rng := rand.New(rand.NewSource(int64(n)))
		a := MustMatrix[float64](n, n)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()
			for k := 0; k < 40; k++ {
				_ = a.SetElement(i, rng.Intn(n), 1)
			}
		}
		a.Wait()
		u, w := DenseVector(x), MustVector[float64](n)
		plusSecond, pull := PlusSecond[float64](), &Descriptor{Dir: DirPull}
		mxv := func() {
			if err := MxV(w, (*Vector[bool])(nil), nil, plusSecond, a, u, pull); err != nil {
				t.Fatal(err)
			}
		}
		mxv()
		return testing.AllocsPerRun(20, mxv)
	}
	for _, p := range []int{1, 8} {
		if small, large := allocs(4096, p), allocs(16384, p); small != large {
			t.Errorf("P=%d: %.1f allocations a call at n = 4 096, %.1f at n = 16 384", p, small, large)
		}
	}
}

// TestLanePassAllocates: the lane passes of a PageRank iteration over full
// dense-held vectors — apply through an accumulator, eWiseMult, eWiseAdd,
// extract of All and of an index list, reduce — each make as many
// allocations at n = 16 384 as at n = 4 096: none per lane.
func TestLanePassAllocates(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes allocation counts unrepeatable")
	}
	allocs := func(n int) map[string]float64 {
		x := make([]float64, n)
		idx := make([]int, n/8)
		for i := range x {
			x[i] = float64(i%7) + 0.5
		}
		for k := range idx {
			idx[k] = (k * 37) % n
		}
		u, v, w := DenseVector(x), DenseVector(x), DenseVector(x)
		out, part := MustVector[float64](n), MustVector[float64](len(idx))
		plus, times, plusMonoid := Plus[float64](), Times[float64](), PlusMonoid[float64]()
		scale := func(x float64) float64 { return 0.85 * x }
		got := map[string]float64{}
		for name, op := range map[string]func() error{
			"apply+accum": func() error { return ApplyVector[float64, float64, bool](w, nil, plus, scale, u, nil) },
			"eWiseMult":   func() error { return EWiseMultVector[float64, float64, float64, bool](out, nil, nil, times, u, v, nil) },
			"eWiseAdd":    func() error { return EWiseAddVector[float64, bool](out, nil, nil, plus, u, v, nil) },
			"extract/All": func() error { return ExtractVector[float64, bool](out, nil, nil, u, All, nil) },
			"extract/idx": func() error { return ExtractVector[float64, bool](part, nil, nil, u, idx, nil) },
			"reduce": func() error {
				_, err := ReduceVectorToScalar(plusMonoid, u)
				return err
			},
		} {
			if err := op(); err != nil {
				t.Fatal(err)
			}
			got[name] = testing.AllocsPerRun(20, func() {
				if err := op(); err != nil {
					t.Fatal(err)
				}
			})
		}
		return got
	}
	small, large := allocs(4096), allocs(16384)
	for name, s := range small {
		if large[name] != s {
			t.Errorf("%s: %.1f allocations a call at n = 4 096, %.1f at n = 16 384", name, s, large[name])
		}
	}
}
