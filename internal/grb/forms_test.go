package grb_test

// The tests beside the conformance table that are no product of an
// operation and the write rule's axes: storage-form lifecycles, element
// writes on a dense-held vector, an output that is its own mask, two routes
// of one kernel pinned to each other, the tagged pulls at a size eight
// workers cut into chunks, and single properties of reductions, dispatch,
// tracing and serialization.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"lagraph/internal/grb"
	"lagraph/internal/grb/ref"
	"lagraph/internal/obs"
)

// TestTaggedTwinsChunkedVector is the table's twin rows at sizes whose work
// eight workers cut into chunks, over float64 (plus.* on sums that depend
// on their order, min.* on NaN, ±Inf and −0), with the literal twin as the
// reference and one worker held to eight. u is three-quarters full; full
// and dense-held (PageRank's and FastSV's operand); or a sixteenth full and
// sparse-held (read through scratch lanes). For the min tags row and column
// 0 of A meet u so that min's terminal −Inf arrives mid-row. A is rows of 24
// random entries, then a 128×128 lattice's rows of at most four, where a
// row's first match and its fold are most of a pull's work; every case runs
// unmasked, under a dense-held complemented mask (the lane pull) and under a
// sparse-held one (the pull over the admitted rows).
func TestTaggedTwinsChunkedVector(t *testing.T) {
	rng := rand.New(rand.NewSource(2401))
	const deg, side = 24, 128
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1, -2.5, 3}
	for _, lattice := range []bool{false, true} {
		for _, tw := range taggedTwins[float64]() {
			taggedTwinChunked(t, rng, tw, deg, side, lattice, special)
		}
	}
}

// taggedTwinChunked runs TestTaggedTwinsChunkedVector's table for one
// twin, on random rows of deg entries or on the side×side lattice.
func taggedTwinChunked(t *testing.T, rng *rand.Rand, tw taggedTwin[float64], deg, side int, lattice bool, special []float64) {
	n := 4096
	if lattice {
		n = side * side
	}
	isMin := tw.name[:3] == "min"
	val := func() float64 { return cancelling(rng) }
	if isMin {
		val = func() float64 { return special[rng.Intn(len(special))] }
	}
	a := grb.MustMatrix[float64](n, n)
	for i := 0; i < n; i++ {
		if lattice {
			r, c := i/side, i%side
			for _, nb := range [][2]int{{r - 1, c}, {r + 1, c}, {r, c - 1}, {r, c + 1}} {
				if nb[0] >= 0 && nb[0] < side && nb[1] >= 0 && nb[1] < side {
					_ = a.SetElement(i, nb[0]*side+nb[1], val())
				}
			}
			continue
		}
		for _, j := range rng.Perm(n)[:deg] {
			_ = a.SetElement(i, j, val())
		}
	}
	u, full, sparse := grb.MustVector[float64](n), grb.MustVector[float64](n), grb.MustVector[float64](n)
	for i := 0; i < n; i++ {
		x := val()
		_ = full.SetElement(i, x)
		if r := rng.Intn(16); r > 3 {
			_ = u.SetElement(i, x)
		} else if r == 0 {
			_ = sparse.SetElement(i, x)
		}
	}
	if isMin && !lattice {
		for k, x := range []float64{4, math.Inf(-1), math.NaN(), -1} {
			_ = a.SetElement(k+1, 0, x+1)
			_ = a.SetElement(0, k+1, x+1)
			for _, v := range []*grb.Vector[float64]{u, full, sparse} {
				_ = v.SetElement(k+1, x)
			}
		}
	}
	a.Wait()
	u.Wait()
	full = held(full, denseHeld)
	sparse.Wait()
	if dense, _ := sparse.Forms(); dense {
		t.Fatal("the sparse u is dense-held")
	}
	mask, sparseMask := vecOf(random(rng, 1, n, 0.7, coin)), vecOf(random(rng, 1, n, 1.0/32, coin))
	if dense, _ := sparseMask.Forms(); dense {
		t.Fatal("the sparse mask is dense-held")
	}
	for _, u := range []*grb.Vector[float64]{u, full, sparse} {
		for _, masked := range []string{"none", "dense", "sparse"} {
			for _, c := range []struct {
				name string
				d    grb.Descriptor
				mxv  bool
			}{
				{"vxm/push", grb.Descriptor{Dir: grb.DirPush}, false},
				{"vxm/pull", grb.Descriptor{Dir: grb.DirPull}, false},
				{"mxv/pull", grb.Descriptor{Dir: grb.DirPull}, true},
				{"mxv/push-tranA", grb.Descriptor{Dir: grb.DirPush, TranA: true}, true},
			} {
				var gm *grb.Vector[bool]
				switch masked {
				case "dense":
					gm, c.d.Comp = held(mask, denseHeld), true
				case "sparse":
					gm = sparseMask
				}
				label := fmt.Sprintf("%s %s lattice=%v mask=%s u=%d entries", tw.name, c.name, lattice, masked, u.Nvals())
				run := func(w *grb.Vector[float64], s grb.Semiring[float64, float64, float64]) error {
					if c.mxv {
						return grb.MxV(w, gm, nil, s, a, u, &c.d)
					}
					return grb.VxM(w, gm, nil, s, u, a, &c.d)
				}
				serial, w := grb.MustVector[float64](n), grb.MustVector[float64](n)
				prev := grb.SetParallelism(1)
				must(t, run(serial, tw.tagged))
				grb.SetParallelism(8)
				rec := twinned(t, tw, w, run)
				grb.SetParallelism(prev)
				mustMatch[float64](t, label+": P=8 vs P=1", w, serial, byBits)
				// A push from the sparse u or on the lattice, and a pull over
				// the sparse mask's rows, are too little work to chunk.
				chunked := c.d.Dir == grb.DirPull || u != sparse && !lattice
				if rec.Chunks < 2 && chunked && masked != "sparse" {
					t.Fatalf("%s: %d chunks at eight workers; the input does not reach the chunked kernel", label, rec.Chunks)
				}
			}
		}
	}
}

// TestDenseHeldLifecycle walks a dense-held matrix and vector through the
// whole-object methods that replace or reshape storage: none may leave a
// dense form behind that disagrees with the compressed one.
func TestDenseHeldLifecycle(t *testing.T) {
	rng := rand.New(rand.NewSource(1605))
	a := random(rng, 9, 7, 0.5, small)
	v := vecOf(random(rng, 1, 40, 0.5, small))

	t.Run("resize", func(t *testing.T) {
		m, w := held(a, denseHeld), held(v, denseHeld)
		want := ref.FromMatrix(a)
		must(t, m.Resize(4, 3))
		small := cells(4, 3, func(i, j int) (int64, bool) { return want.Val[i][j], want.Set[i][j] })
		mustMatch[int64](t, "resized matrix", m, small, byValue)
		must(t, m.Resize(0, 0))
		if m.Nvals() != 0 {
			t.Fatalf("0×0 matrix holds %d entries", m.Nvals())
		}
		must(t, m.Resize(5, 5))
		if _, err := m.GetElement(4, 4); err != grb.ErrNoValue {
			t.Fatalf("regrown matrix: GetElement = %v, want ErrNoValue", err)
		}
		must(t, w.Resize(10))
		wv := ref.FromVector(v)
		short := cells(1, 10, func(_, j int) (int64, bool) { return wv.Val[j], wv.Set[j] })
		mustMatch[int64](t, "resized vector", w, short, byValue)
	})
	t.Run("clear-build", func(t *testing.T) {
		m, w := held(a, denseHeld), held(v, denseHeld)
		m.Clear()
		w.Clear()
		if m.Nvals() != 0 || w.Nvals() != 0 {
			t.Fatal("Clear left entries behind")
		}
		must(t, m.Build([]int{1}, []int{2}, []int64{5}, nil))
		must(t, w.Build([]int{3}, []int64{6}, nil))
		if x, err := m.GetElement(1, 2); err != nil || x != 5 {
			t.Fatalf("matrix after Clear+Build: (%d, %v)", x, err)
		}
		if x, err := w.GetElement(3); err != nil || x != 6 {
			t.Fatalf("vector after Clear+Build: (%d, %v)", x, err)
		}
	})
	t.Run("export-import", func(t *testing.T) {
		w := held(v, denseHeld)
		n, idx, x := w.ExportSparse()
		if w.Nvals() != 0 {
			t.Fatal("ExportSparse left entries behind")
		}
		back, err := grb.ImportSparse(n, idx, x, false)
		must(t, err)
		mustMatch[int64](t, "imported vector", back, v, byValue)
		m := held(a, denseHeld)
		nr, nc, p, i, xs := m.ExportCSR()
		if m.Nvals() != 0 {
			t.Fatal("ExportCSR left entries behind")
		}
		mb, err := grb.ImportCSR(nr, nc, p, i, xs, false)
		must(t, err)
		mustMatch[int64](t, "imported matrix", mb, a, byValue)
	})
	t.Run("assign-does-not-share", func(t *testing.T) {
		// A write may adopt its z; an assigned-from operand must keep its
		// own arrays (a zombie flip in the output would otherwise reach it).
		for _, accum := range []grb.BinaryOp[int64, int64, int64]{nil, grb.Plus[int64]()} {
			u, w := v.Dup(), grb.MustVector[int64](v.Size())
			must(t, grb.AssignVector(w, (*grb.Vector[bool])(nil), accum, u, grb.All, nil))
			is, _ := w.ExtractTuples()
			_ = w.RemoveElement(is[0])
			mustMatch[int64](t, "assigned-from vector", u, v, byValue)
			src, dst := a.Dup(), grb.MustMatrix[int64](a.Nrows(), a.Ncols())
			must(t, grb.AssignMatrix(dst, (*grb.Matrix[bool])(nil), accum, src, grb.All, grb.All, nil))
			ri, rj, _ := dst.ExtractTuples()
			_ = dst.RemoveElement(ri[0], rj[0])
			mustMatch[int64](t, "assigned-from matrix", src, a, byValue)
		}
	})
	t.Run("promotion-rule", func(t *testing.T) {
		// 64 cells: promoted by the first merge-needing write at ≥ 8
		// entries, demoted when removals take it below.
		w := grb.MustVector[int64](64)
		one := grb.MustVector[int64](64)
		_ = one.SetElement(63, 1)
		for i := 0; i < 7; i++ {
			_ = w.SetElement(i, int64(i))
		}
		must(t, grb.AssignVector(w, (*grb.Vector[bool])(nil), grb.Plus[int64](), one, grb.All, nil))
		if dense, _ := w.Forms(); dense {
			t.Fatal("7 of 64 entries: promoted below the 12.5 % bar")
		}
		must(t, grb.AssignVector(w, (*grb.Vector[bool])(nil), grb.Plus[int64](), one, grb.All, nil))
		if dense, stale := w.Forms(); !dense || !stale {
			t.Fatalf("8 of 64 entries and an accumulating write: dense=%v stale=%v, want the in-place route", dense, stale)
		}
		w.Wait()
		if dense, stale := w.Forms(); !dense || stale {
			t.Fatalf("after Wait: dense=%v stale=%v, want both forms valid", dense, stale)
		}
		_ = w.RemoveElement(0)
		if dense, _ := w.Forms(); dense {
			t.Fatal("7 of 64 entries after a removal: still dense-held")
		}
		if x, err := w.GetElement(63); err != nil || x != 2 {
			t.Fatalf("w(63) = (%d, %v), want 2", x, err)
		}
	})
}

// TestDenseResultRouteOutputIsMask: w⟨w⟩ and w⟨¬w⟩ — the mask's lanes are
// the ones the output is about to give up or be written through.
func TestDenseResultRouteOutputIsMask(t *testing.T) {
	rng := rand.New(rand.NewSource(1703))
	plus := grb.Plus[int64]()
	neg := func(x int64) int64 { return -x }
	for trial := 0; trial < 6; trial++ {
		n := 40 + rng.Intn(40)
		a := random(rng, n, n, 0.2, small)
		w0 := vecOf(random(rng, 1, n, []float64{0.06, 0.7}[trial%2], small))
		u0, v0 := vecOf(random(rng, 1, n, 0.7, small)), fullVector[int64](n)
		type (
			vec   = *grb.Vector[int64]
			mimic = *ref.Vec[int64]
			acc   = grb.BinaryOp[int64, int64, int64]
		)
		ops := []struct {
			name string
			grb  func(w vec, accum acc, d *grb.Descriptor, u, v vec) error
			ref  func(w, mask mimic, accum acc, d ref.Desc, u, v mimic)
		}{
			{"eWiseAdd",
				func(w vec, accum acc, d *grb.Descriptor, u, v vec) error {
					return grb.EWiseAddVector(w, w, accum, plus, u, v, d)
				},
				func(w, mask mimic, accum acc, d ref.Desc, u, v mimic) { ref.EWiseAddVec(w, mask, accum, plus, u, v, d) }},
			{"apply",
				func(w vec, accum acc, d *grb.Descriptor, u, _ vec) error {
					return grb.ApplyVector(w, w, accum, neg, u, d)
				},
				func(w, mask mimic, accum acc, d ref.Desc, u, _ mimic) { ref.ApplyVec(w, mask, accum, neg, u, d) }},
			{"extract/all",
				func(w vec, accum acc, d *grb.Descriptor, _, v vec) error {
					return grb.ExtractVector(w, w, accum, v, grb.All, d)
				},
				func(w, mask mimic, accum acc, d ref.Desc, _, v mimic) { ref.ExtractVec(w, mask, accum, v, nil, d) }},
			{"assign/scalar",
				func(w vec, accum acc, d *grb.Descriptor, _, _ vec) error {
					return grb.AssignVectorScalar(w, w, accum, 7, grb.All, d)
				},
				func(w, mask mimic, accum acc, d ref.Desc, _, _ mimic) {
					ref.AssignVec(w, mask, accum, &ref.Vec[int64]{N: w.N, Val: slices.Repeat([]int64{7}, w.N), Set: slices.Repeat([]bool{true}, w.N)}, nil, d)
				}},
			{"mxv/pull",
				func(w vec, accum acc, d *grb.Descriptor, u, _ vec) error {
					return grb.MxV(w, w, accum, grb.PlusTimes[int64](), a, u, &grb.Descriptor{Comp: d.Comp, Replace: d.Replace, Dir: grb.DirPull})
				},
				func(w, mask mimic, accum acc, d ref.Desc, u, _ mimic) {
					ref.MxV(w, mask, accum, grb.PlusTimes[int64](), ref.FromMatrix(a), u, d)
				}},
		}
		for _, op := range ops {
			for _, comp := range []bool{false, true} {
				for _, replace := range []bool{false, true} {
					for _, accum := range []grb.BinaryOp[int64, int64, int64]{nil, plus} {
						for _, f := range []form{standard, denseHeld} {
							label := fmt.Sprintf("t%d/%s/comp=%v/replace=%v/accum=%v/%s", trial, op.name, comp, replace, accum != nil, f)
							d := grb.Descriptor{Comp: comp, Replace: replace}
							w := held(w0, f)
							want := ref.FromVector(w0)
							op.ref(want, ref.FromVector(w0), accum, refDesc(d), ref.FromVector(u0), ref.FromVector(v0))
							if err := op.grb(w, accum, &d, held(u0, f), held(v0, f)); err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							mustMatch[int64](t, label, w, want, byValue)
							mustSerializeLikeTwin[int64](t, label, w)
						}
					}
				}
			}
		}
	}
}

// TestDenseHeldElementWrites interleaves SetElement, MergeElement and
// RemoveElement on a dense-held vector. With nothing buffered each is an
// O(1) write in place; behind buffered tuples (a small region assign
// leaves some) it must queue, or it would overtake them. The mimic is
// compared after every step, reductions are read off both forms, and a
// sparse twin fed the same history must serialize to the same bytes.
func TestDenseHeldElementWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(1704))
	plus := grb.Plus[int64]()
	sum := func(v *grb.Vector[int64]) int64 {
		s, err := grb.ReduceVectorToScalar(grb.PlusMonoid[int64](), v)
		must(t, err)
		return s
	}
	for trial := 0; trial < 60; trial++ {
		n := 16 + rng.Intn(48)
		init := vecOf(random(rng, 1, n, 0.6, small))
		v, twin, want := held(init, denseHeld), init.Dup(), ref.FromVector(init)
		twinM := wideTwin[int64]()
		is, xs := init.ExtractTuples()
		for k, i := range is {
			must(t, twinM.SetElement(0, i, xs[k]))
		}
		for step := 0; step < 40; step++ {
			i, x := rng.Intn(n), int64(rng.Intn(9)-4)
			dense, _ := v.Forms() // every step starts with nothing buffered
			op := rng.Intn(5)
			switch op {
			case 0:
				must(t, v.SetElement(i, x))
				must(t, twin.SetElement(i, x))
				must(t, twinM.SetElement(0, i, x))
				want.Val[i], want.Set[i] = x, true
			case 1:
				must(t, v.MergeElement(i, x, plus))
				must(t, twin.MergeElement(i, x, plus))
				must(t, twinM.MergeElement(0, i, x, plus))
				if want.Set[i] {
					x += want.Val[i]
				}
				want.Val[i], want.Set[i] = x, true
			case 2:
				must(t, v.RemoveElement(i))
				must(t, twin.RemoveElement(i))
				must(t, twinM.RemoveElement(0, i))
				want.Set[i], want.Val[i] = false, 0
			case 3: // a small accumulating region assign, then a write to
				// one of its indices
				idx := uniqueIdx(rng, n, 1+rng.Intn(3))
				u := fullVector[int64](len(idx))
				must(t, grb.AssignVector(v, (*grb.Vector[bool])(nil), plus, u, idx, nil))
				must(t, grb.AssignVector(twin, (*grb.Vector[bool])(nil), plus, u, idx, nil))
				ref.AssignVec(want, (*ref.Vec[bool])(nil), plus, ref.FromVector(u), idx, ref.Desc{})
				_, ux := u.ExtractTuples()
				for k, target := range idx {
					must(t, twinM.MergeElement(0, target, ux[k], plus))
				}
				must(t, v.MergeElement(idx[0], x, plus))
				must(t, twin.MergeElement(idx[0], x, plus))
				must(t, twinM.MergeElement(0, idx[0], x, plus))
				want.Val[idx[0]] += x
			default:
				if got, w := sum(v), sum(twin); got != w {
					t.Fatalf("trial %d step %d: sum off the lanes %d, off the entries %d", trial, step, got, w)
				}
			}
			if buffered, _ := v.Pending(); dense && op < 3 && buffered != 0 {
				t.Fatalf("trial %d step %d: an element write to a dense-held vector with nothing buffered left %d pending tuples", trial, step, buffered)
			}
			label := fmt.Sprintf("trial %d step %d", trial, step)
			mustMatch[int64](t, label, v, want, byValue)
			mustMatch[int64](t, label+" sparse twin", twin, want, byValue)
		}
		mustSerializeLikeTwin[int64](t, fmt.Sprintf("trial %d", trial), v)
		mustMatchWideTwin(t, twinM, want)
	}
}

// TestGustavsonMaskFirstMatchesSortEmit pins the two row routes of the
// Gustavson kernel to each other and to the mimic. Under a positive mask a
// row is computed mask-first; with no mask it is accumulated whole, sorted
// and emitted. So C⟨M⟩ ⊙= A·B forced through Gustavson must equal, bit for
// bit, the unmasked Gustavson product written through the same mask,
// accumulator and descriptor by the write rule alone — on float64 operands
// with full mantissas, where a product met in another order would show.
func TestGustavsonMaskFirstMatchesSortEmit(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	m, k, n := 40, 36, 44
	emptyRows := random(rng, m, n, 0.3, coin)
	for i := 0; i < m; i += 2 { // every other mask row admits nothing
		for j := 0; j < n; j++ {
			_ = emptyRows.RemoveElement(i, j)
		}
	}
	emptyRows.Wait()
	// A mask row far longer than the products of the A row it filters: the
	// row route falls back to accumulate-sort-filter even though the mask is
	// positive.
	full := grb.MustMatrix[bool](m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			_ = full.SetElement(i, j, true)
		}
	}
	full.Wait()
	cases := []struct {
		name         string
		mask         *grb.Matrix[bool]
		desc         grb.Descriptor
		density      float64 // of A
		hyperA       bool
		accumReplace bool
	}{
		{name: "structural", mask: random(rng, m, n, 0.3, coin), density: 0.3},
		{name: "value-with-stored-false", mask: random(rng, m, n, 0.5, coin), desc: grb.Descriptor{MaskValue: true}, density: 0.3},
		{name: "empty-mask-rows", mask: emptyRows, density: 0.3},
		{name: "complemented", mask: random(rng, m, n, 0.3, coin), desc: grb.Descriptor{Comp: true}, density: 0.3},
		{name: "mask-row-dwarfs-products", mask: full, density: 0.03},
		{name: "hypersparse-A", mask: random(rng, m, n, 0.3, coin), density: 0.1, hyperA: true},
		{name: "accum+replace", mask: random(rng, m, n, 0.3, coin), desc: grb.Descriptor{Replace: true}, density: 0.3, accumReplace: true},
		{name: "value+accum", mask: random(rng, m, n, 0.5, coin), desc: grb.Descriptor{MaskValue: true}, density: 0.3, accumReplace: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ai, bi := random(rng, m, k, tc.density, small), random(rng, k, n, 0.3, small)
			af, bf := random(rng, m, k, tc.density, normal), random(rng, k, n, 0.3, normal)
			if tc.hyperA {
				ai, af = held(ai, hypersparse), held(af, hypersparse)
			}
			c0i, c0f := random(rng, m, n, 0.2, small), random(rng, m, n, 0.2, normal)
			var accI grb.BinaryOp[int64, int64, int64]
			var accF grb.BinaryOp[float64, float64, float64]
			if tc.accumReplace {
				accI, accF = grb.Plus[int64](), grb.Plus[float64]()
			}
			d := tc.desc
			d.Method = grb.MxMGustavson

			trace := obs.NewTrace(8)
			restore := obs.Set(trace)
			gotI := c0i.Dup()
			err := grb.MxM(gotI, tc.mask, accI, grb.PlusTimes[int64](), ai, bi, &d)
			obs.Set(restore)
			if err != nil {
				t.Fatal(err)
			}
			want := ref.FromMatrix(c0i)
			ref.MxM(want, ref.FromMatrix(tc.mask), accI, grb.PlusTimes[int64](), ref.FromMatrix(ai), ref.FromMatrix(bi), refDesc(d))
			mustMatch[int64](t, "int64 vs the mimic", gotI, want, byValue)

			// The op record does not tell the row routes apart, and the
			// flop estimate is the unmasked kernel's.
			plain := grb.MustMatrix[int64](m, n)
			restore = obs.Set(trace)
			err = grb.MxM[int64, int64, int64, bool](plain, nil, nil, grb.PlusTimes[int64](), ai, bi, &grb.Descriptor{Method: grb.MxMGustavson})
			obs.Set(restore)
			if err != nil {
				t.Fatal(err)
			}
			// Into an empty C the write rule keeps what the mask admits of
			// Z: a kernel that applied the mask exactly emitted no more.
			fresh := grb.MustMatrix[int64](m, n)
			restore = obs.Set(trace)
			err = grb.MxM(fresh, tc.mask, nil, grb.PlusTimes[int64](), ai, bi, &d)
			obs.Set(restore)
			if err != nil {
				t.Fatal(err)
			}
			ops := trace.Ops()
			if len(ops) != 3 || ops[0].Kernel != "gustavson" || ops[0].EstFlops != ops[1].EstFlops || ops[0].ActFlops != ops[1].ActFlops {
				t.Fatalf("op records %+v: want gustavson records with equal flop counts", ops)
			}
			if ops[2].NnzOut != fresh.Nvals() {
				t.Fatalf("kernel emitted %d entries, the mask admits %d of them", ops[2].NnzOut, fresh.Nvals())
			}

			gotF := c0f.Dup()
			if err := grb.MxM(gotF, tc.mask, accF, grb.PlusTimes[float64](), af, bf, &d); err != nil {
				t.Fatal(err)
			}
			z := grb.MustMatrix[float64](m, n)
			if err := grb.MxM[float64, float64, float64, bool](z, nil, nil, grb.PlusTimes[float64](), af, bf, &grb.Descriptor{Method: grb.MxMGustavson}); err != nil {
				t.Fatal(err)
			}
			viaWrite := c0f.Dup()
			if err := grb.ApplyMatrix(viaWrite, tc.mask, accF, grb.Identity[float64](), z, &tc.desc); err != nil {
				t.Fatal(err)
			}
			mustMatch[float64](t, "mask-first vs sort-emit", gotF, viaWrite, byBits)
		})
	}
}

// TestConformanceAssignReplaceInRegion: Replace is restricted to the
// region, so admitted-but-absent positions are cleared and entries outside
// the region survive.
func TestConformanceAssignReplaceInRegion(t *testing.T) {
	c := grb.MustMatrix[int64](3, 3)
	_ = c.SetElement(0, 0, 1) // inside region, not admitted by mask
	_ = c.SetElement(2, 2, 9) // outside region
	sub := grb.MustMatrix[int64](2, 2)
	_ = sub.SetElement(0, 1, 5)
	mask := grb.MustMatrix[int64](3, 3)
	_ = mask.SetElement(0, 1, 1)
	if err := grb.AssignMatrix(c, mask, nil, sub, []int{0, 1}, []int{0, 1}, &grb.Descriptor{Replace: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetElement(0, 0); err == nil {
		t.Fatal("in-region non-admitted entry must be cleared under Replace")
	}
	if v, _ := c.GetElement(0, 1); v != 5 {
		t.Fatal("assigned value missing")
	}
	if v, _ := c.GetElement(2, 2); v != 9 {
		t.Fatal("outside-region entry must survive")
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

// TestReduceTerminalEarlyExit: a reduction with a terminal monoid must
// return the terminal value even if later elements would be "larger" in
// some other order — and must not touch a poisoned operator after hitting
// it.
func TestReduceTerminalEarlyExit(t *testing.T) {
	n := 1000
	v := grb.MustVector[bool](n)
	for i := 0; i < n; i++ {
		_ = v.SetElement(i, i == 3)
	}
	got, err := grb.ReduceVectorToScalar(grb.LOrMonoid(), v)
	if err != nil || got != true {
		t.Fatalf("lor reduce: %v %v", got, err)
	}
	// MIN monoid with the terminal value placed early.
	w := grb.MustVector[int32](n)
	for i := 0; i < n; i++ {
		x := int32(i + 1)
		if i == 5 {
			x = -(1 << 31) // MinInt32: terminal
		}
		_ = w.SetElement(i, x)
	}
	gotMin, err := grb.ReduceVectorToScalar(grb.MinMonoid[int32](), w)
	if err != nil || gotMin != -(1<<31) {
		t.Fatalf("min reduce: %v %v", gotMin, err)
	}
	// Empty vector reduces to the identity.
	empty := grb.MustVector[int32](4)
	id, err := grb.ReduceVectorToScalar(grb.PlusMonoid[int32](), empty)
	if err != nil || id != 0 {
		t.Fatalf("empty reduce: %v %v", id, err)
	}
}

// TestFormatSerializeRoundTrip pins that serialization is a fixed point
// for each form — standard, hypersparse (reached by content: huge and
// sparse) and dense-held: each round-trips to the same tuples AND the same
// bytes.
func TestFormatSerializeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 4; trial++ {
		m, n := 8+rng.Intn(30), 8+rng.Intn(30)
		forms := map[form]*grb.Matrix[float64]{
			standard:    random(rng, m, n, 0.3, normal),
			hypersparse: random(rng, 1<<20, 1<<20, 1e-10, normal),
			denseHeld:   held(random(rng, m, n, 0.3, normal), denseHeld),
		}
		for _, form := range allForms {
			b := forms[form]
			var buf bytes.Buffer
			if err := grb.SerializeMatrix(&buf, b); err != nil {
				t.Fatal(err)
			}
			c, err := grb.DeserializeMatrix[float64](bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("%s: %v", form, err)
			}
			mustMatch[float64](t, string(form)+"/tuples", c, b, byBits)
			var re bytes.Buffer
			if err := grb.SerializeMatrix(&re, c); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), re.Bytes()) {
				t.Fatalf("%s: serialization is not a fixed point across the round trip", form)
			}
		}
	}
}

// TestFormatTracedIdenticalToUntraced pins that observation never changes
// results.
func TestFormatTracedIdenticalToUntraced(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	m, k, n := 30, 34, 32
	af := random(rng, m, k, 0.4, normal)
	bf := random(rng, k, n, 0.4, normal)
	uf := vecOf(random(rng, 1, m, 0.7, normal))

	run := func() (*grb.Matrix[float64], *grb.Vector[float64]) {
		c := grb.MustMatrix[float64](m, n)
		if err := grb.MxM[float64, float64, float64, bool](c, nil, nil, grb.PlusTimes[float64](), held(af, denseHeld), held(bf, denseHeld), nil); err != nil {
			t.Fatal(err)
		}
		w := grb.MustVector[float64](k)
		if err := grb.VxM[float64, float64, float64, bool](w, nil, nil, grb.PlusTimes[float64](), uf, held(af, denseHeld), nil); err != nil {
			t.Fatal(err)
		}
		return c, w
	}

	baseC, baseW := run()

	trace := obs.NewTrace(1024)
	defer obs.Set(obs.Set(trace))
	for i := 0; i < 2; i++ {
		c, w := run()
		mustMatch[float64](t, fmt.Sprintf("traced round %d mxm", i), c, baseC, byBits)
		mustMatch[float64](t, fmt.Sprintf("traced round %d vxm", i), w, baseW, byBits)
	}
	if len(trace.Ops()) == 0 {
		t.Fatal("trace recorded no ops")
	}
}

// TestDispatchPolicyRecorded checks that the forced directions agree
// bit-for-bit with auto dispatch and that the op trace says which of the
// two policies — "static" or "forced" — picked the kernel.
func TestDispatchPolicyRecorded(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	m, n := 24, 26
	a := random(rng, m, n, 0.6, small)
	u := vecOf(random(rng, 1, m, 0.8, small))

	trace := obs.NewTrace(64)
	defer obs.Set(obs.Set(trace))
	run := func(desc *grb.Descriptor) *grb.Vector[int64] {
		w := grb.MustVector[int64](n)
		if err := grb.VxM[int64, int64, int64, bool](w, nil, nil, grb.PlusTimes[int64](), u, a, desc); err != nil {
			t.Fatal(err)
		}
		return w
	}
	want := run(nil)
	mustMatch[int64](t, "push vs auto", run(&grb.Descriptor{Dir: grb.DirPush}), want, byValue)
	mustMatch[int64](t, "pull vs auto", run(&grb.Descriptor{Dir: grb.DirPull}), want, byValue)

	var got []string
	for _, r := range trace.Ops() {
		if r.Op == "vxm" {
			got = append(got, r.Policy+"/"+r.Kernel)
		}
	}
	// u is more than half full, so the static density switch pulls.
	if fmt.Sprint(got) != "[static/pull forced/push forced/pull]" {
		t.Fatalf("vxm op records %v; want [static/pull forced/push forced/pull]", got)
	}
}
