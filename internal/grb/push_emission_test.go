package grb_test

// Conformance of the push kernel's emission routes against the dense
// mimic. The kernel's regime is a function of two numbers — the estimated
// work (one chunk below seqFallbackWork = 1<<16, then work/8192 chunks, at
// most 64 and at most one per frontier entry) and the result's size against
// the promotion bar of the output dimension (8·nvals ≥ n: the accumulator
// is handed over as lanes; below it the touched list is sorted) — so the
// inputs here are built to land exactly on either side of each boundary,
// and the op record is asked which side they landed on.

import (
	"fmt"
	"math/rand"
	"testing"

	"lagraph/internal/grb"
	"lagraph/internal/grb/ref"
	"lagraph/internal/obs"
)

// pushGeometry is a frontier × matrix pair whose push costs exactly work
// estimated flops and emits exactly span outputs into dimension n.
type pushGeometry struct {
	name         string
	n, span      int
	work         int
	split        bool // the first two rows hold the upper and lower half of the support
	wantChunks   int
	wantLanes    bool
	withVariants bool // also run the mask × accumulator table
	// barMask also runs the product into an empty w under a dense-held
	// complemented mask holding this many outputs: enough to take the
	// admitted cells below the bar the touched cells reach.
	barMask int
}

// build returns the m×n matrix and the all-rows frontier of g. The support
// S is a random span-subset of the columns; every row holds S whole, except
// the two half rows of a split geometry (which leave the touched list
// unsorted: upper half first) and a last, shorter row that brings the
// estimated work — Σ(deg+1) — to g.work exactly.
func (g pushGeometry) build(rng *rand.Rand) (*grb.Matrix[int64], *grb.Vector[int64]) {
	support := rng.Perm(g.n)[:g.span]
	var rows [][]int
	left := g.work
	add := func(cols []int) {
		rows = append(rows, cols)
		left -= len(cols) + 1
	}
	if g.split {
		upper, lower := []int{}, []int{}
		for _, j := range support {
			if j >= g.n/2 {
				upper = append(upper, j)
			} else {
				lower = append(lower, j)
			}
		}
		add(upper)
		add(lower)
	}
	for left > g.span {
		add(support)
	}
	if left > 0 {
		add(support[:left-1])
	}
	if left != 0 {
		panic(fmt.Sprintf("%s: work off by %d", g.name, left))
	}
	var is, js []int
	var xs []int64
	for i, cols := range rows {
		for _, j := range cols {
			is, js, xs = append(is, i), append(js, j), append(xs, int64(rng.Intn(9)-4))
		}
	}
	a := grb.MustMatrix[int64](len(rows), g.n)
	if err := a.Build(is, js, xs, nil); err != nil {
		panic(err)
	}
	u := grb.MustVector[int64](len(rows))
	for i := range rows {
		_ = u.SetElement(i, int64(1+rng.Intn(4)))
	}
	u.Wait()
	return a, u
}

func pushGeometries() []pushGeometry {
	const fallback, quantum, maxChunks = 1 << 16, 1 << 13, 64
	var out []pushGeometry
	for _, w := range []struct {
		name   string
		work   int
		chunks int
	}{
		{"one-chunk", fallback - 1, 1},
		{"first-chunked", fallback, fallback / quantum},
		{"63-chunks", maxChunks*quantum - 1, maxChunks - 1},
		{"64-chunks", maxChunks * quantum, maxChunks},
		{"capped", maxChunks*quantum + quantum, maxChunks},
	} {
		// 8·2047 = 16376: at n = 16376 the result is on the bar, one more
		// column puts it below.
		for _, bar := range []struct {
			name  string
			n     int
			lanes bool
		}{{"below-bar", 16377, false}, {"on-bar", 16376, true}} {
			out = append(out, pushGeometry{
				name: w.name + "/" + bar.name, n: bar.n, span: 2047, work: w.work, split: true,
				wantChunks: w.chunks, wantLanes: bar.lanes,
				withVariants: w.chunks == 1 || w.chunks == maxChunks-1,
			})
		}
	}
	// Two chunks need a two-entry frontier carrying 1<<16 flops: two full
	// rows of 32 767 columns, each weighing its entries plus one.
	out = append(out, pushGeometry{name: "two-chunks", n: 32767, span: 32767, work: fallback, wantChunks: 2, wantLanes: true, withVariants: true})
	// On the bar by its touched cells, one output below it by its admitted
	// ones (8·2046 < 16376): a traversal's ¬visited mask rejecting what the
	// frontier reaches back into.
	out = append(out, pushGeometry{name: "on-bar/admitted-below", n: 16376, span: 2047, work: fallback - 1, split: true, wantChunks: 1, wantLanes: true, barMask: 1})
	return out
}

func TestConformancePushEmission(t *testing.T) {
	push := grb.Descriptor{Dir: grb.DirPush}
	for _, g := range pushGeometries() {
		t.Run(g.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(g.work + g.n)))
			a, u := g.build(rng)
			ra, ru := ref.FromMatrix(a), ref.FromVector(u)

			// Into an empty w, unmasked: the op record names the regime.
			trace := obs.NewTrace(4)
			restore := obs.Set(trace)
			w := grb.MustVector[int64](g.n)
			err := grb.VxM[int64, int64, int64, bool](w, nil, nil, grb.PlusTimes[int64](), u, a, &push)
			obs.Set(restore)
			if err != nil {
				t.Fatal(err)
			}
			want := ref.NewVec[int64](g.n)
			ref.VxM[int64, int64, int64, bool](want, nil, nil, grb.PlusTimes[int64](), ru, ra, refDesc(push))
			mustMatch[int64](t, "", w, want, byValue)
			op := trace.Ops()[0]
			if op.Kernel != "push" || op.Chunks != g.wantChunks || op.NnzOut != g.span || op.EstFlops != int64(g.work) {
				t.Fatalf("op record %+v: want push over %d chunks, %d flops, %d outputs", op, g.wantChunks, g.work, g.span)
			}
			if lanes := op.Write == "dense"; lanes != g.wantLanes {
				t.Fatalf("write route %q: accumulator handed over as lanes = %v, want %v", op.Write, lanes, g.wantLanes)
			}
			if dense, _ := w.Forms(); dense != g.wantLanes {
				t.Fatalf("result dense-held = %v, want %v", dense, g.wantLanes)
			}

			// The same product as A'·u, MxV's spelling of it.
			at := grb.MustMatrix[int64](g.n, a.Nrows())
			if err := grb.Transpose[int64, bool](at, nil, nil, a, nil); err != nil {
				t.Fatal(err)
			}
			wm := grb.MustVector[int64](g.n)
			if err := grb.MxV[int64, int64, int64, bool](wm, nil, nil, grb.PlusTimes[int64](), at, u, &push); err != nil {
				t.Fatal(err)
			}
			mustMatch[int64](t, "", wm, want, byValue)

			if g.barMask > 0 {
				outputs, _ := w.ExtractTuples()
				mask := grb.MustVector[bool](g.n)
				for _, j := range outputs[:g.barMask] {
					_ = mask.SetElement(j, true)
				}
				comp := grb.Descriptor{Comp: true, Dir: grb.DirPush}
				dm := held(mask, denseHeld)
				trace := obs.NewTrace(4)
				restore := obs.Set(trace)
				got := grb.MustVector[int64](g.n)
				err := grb.VxM(got, dm, nil, grb.PlusTimes[int64](), u, a, &comp)
				obs.Set(restore)
				if err != nil {
					t.Fatal(err)
				}
				want := ref.NewVec[int64](g.n)
				ref.VxM(want, ref.FromVector(mask), nil, grb.PlusTimes[int64](), ru, ra, refDesc(comp))
				mustMatch[int64](t, "", got, want, byValue)
				if op := trace.Ops()[0]; op.Write != "adopt" || op.NnzOut != g.span-g.barMask {
					t.Fatalf("op record %+v: want the %d admitted cells adopted below the bar", op, g.span-g.barMask)
				}
				if dense, _ := got.Forms(); dense {
					t.Fatal("result below the bar is dense-held")
				}
			}

			if !g.withVariants {
				return
			}
			mask := vecOf(random(rng, 1, g.n, 0.5, coin))
			w0 := vecOf(random(rng, 1, g.n, 0.3, small))
			// Into w0, and into an empty w: the write rule's adopt arm, which
			// takes the kernel's admitted result as it is.
			for _, into := range []*grb.Vector[int64]{w0, grb.MustVector[int64](g.n)} {
				for _, mc := range writeCases() {
					if mc.desc.MaskValue {
						continue // structural masks only
					}
					for _, accum := range []grb.BinaryOp[int64, int64, int64]{nil, grb.Plus[int64]()} {
						for _, f := range []form{standard, denseHeld} {
							d := mc.desc
							d.Dir = grb.DirPush
							var gm *grb.Vector[bool]
							var rm *ref.Vec[bool]
							if mc.useMask {
								gm, rm = held(mask, f), ref.FromVector(mask)
							}
							got := held(into, f)
							if err := grb.VxM(got, gm, accum, grb.PlusTimes[int64](), u, a, &d); err != nil {
								t.Fatal(err)
							}
							want := ref.FromVector(into)
							ref.VxM(want, rm, accum, grb.PlusTimes[int64](), ru, ra, refDesc(d))
							mustMatch[int64](t, fmt.Sprintf("%s, accum %v, %s, %d entries before", mc.name, accum != nil, f, into.Nvals()), got, want, byValue)
						}
					}
				}
			}
		})
	}
}

// TestConformancePushTerminalAndWide covers what the geometry table does
// not: a terminal monoid (lor stops folding at true, in the scatter and in
// the chunk fold alike), and a chunked push 40 000 outputs wide — past the
// hypersparse layout bar, within the lane cap — beside its wide copy, the
// same entries in BitmapMaxCells+1 columns, where the frontier is one heap
// row. The op record's chunk count names the route: chunked lanes, or one
// heap row.
func TestConformancePushTerminalAndWide(t *testing.T) {
	rng := rand.New(rand.NewSource(1906))

	t.Run("lor-land", func(t *testing.T) {
		const m, n = 600, 900
		a := random(rng, m, n, 0.223, coin)      // 108k entries (a fill of 1−e^−0.223): chunked
		u := vecOf(random(rng, 1, m, 2.3, coin)) // 90 % full
		mask := vecOf(random(rng, 1, n, 0.4, coin))
		for _, mc := range writeCases() {
			if mc.desc.MaskValue {
				continue // made a value mask below
			}
			d := mc.desc
			d.Dir = grb.DirPush
			d.MaskValue = true
			var gm *grb.Vector[bool]
			var rm *ref.Vec[bool]
			if mc.useMask {
				gm, rm = mask, ref.FromVector(mask)
			}
			trace := obs.NewTrace(4)
			restore := obs.Set(trace)
			w := grb.MustVector[bool](n)
			err := grb.VxM(w, gm, nil, grb.LorLand(), u, a, &d)
			obs.Set(restore)
			if err != nil {
				t.Fatal(err)
			}
			if op := trace.Ops()[0]; op.Kernel != "push" || op.Chunks < 2 {
				t.Fatalf("op record %+v: want a chunked push", op)
			}
			want := ref.NewVec[bool](n)
			ref.VxM(want, rm, nil, grb.LorLand(), ref.FromVector(u), ref.FromMatrix(a), refDesc(d))
			mustMatch[bool](t, mc.name, w, want, byValue)
		}
	})

	const m, n = 128, 40000
	a := random(rng, m, n, 0.03, small)
	u := vecOf(random(rng, 1, m, 2, small))
	mask := vecOf(random(rng, 1, n, 0.5, coin))
	w0 := vecOf(random(rng, 1, n, 0.2, small))
	ra, ru := ref.FromMatrix(a), ref.FromVector(u)
	// The mimic's answer to each case, shared by both widths.
	type wcase struct {
		mask  string
		accum bool
	}
	wants := map[wcase]*ref.Vec[int64]{}
	for _, tc := range []struct {
		name   string
		width  int
		chunks func(int) bool
	}{
		{"lanes", n, func(c int) bool { return c >= 2 }},
		{"past-cap", grb.BitmapMaxCells + 1, func(c int) bool { return c == 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			aw, maskw, w0w := widened(a, tc.width, 0), widenedVec(mask, tc.width), widenedVec(w0, tc.width)
			for _, mc := range writeCases() {
				if mc.desc.MaskValue {
					continue // structural masks only
				}
				for _, accum := range []grb.BinaryOp[int64, int64, int64]{nil, grb.Plus[int64]()} {
					d := mc.desc
					d.Dir = grb.DirPush
					var gm *grb.Vector[bool]
					var rm *ref.Vec[bool]
					if mc.useMask {
						gm, rm = maskw, ref.FromVector(mask)
					}
					trace := obs.NewTrace(4)
					restore := obs.Set(trace)
					got := w0w.Dup()
					err := grb.VxM(got, gm, accum, grb.PlusTimes[int64](), u, aw, &d)
					obs.Set(restore)
					if err != nil {
						t.Fatal(err)
					}
					if op := trace.Ops()[0]; op.Kernel != "push" || !tc.chunks(op.Chunks) {
						t.Fatalf("op record %+v: the push took the other route", op)
					}
					want := wants[wcase{mc.name, accum != nil}]
					if want == nil {
						want = ref.FromVector(w0)
						ref.VxM(want, rm, accum, grb.PlusTimes[int64](), ru, ra, refDesc(d))
						wants[wcase{mc.name, accum != nil}] = want
					}
					mustMatchEmbedded(t, mc.name, got, want, byValue)
				}
			}
		})
	}

	// Chunked float64 sums over cancelling values: the lanes fold their
	// chunk partials in chunk order, which here differs from the mimic's
	// ascending-input order; past the cap the push reads the mimic's
	// order, which is also the pull's, bit for bit.
	t.Run("past-cap-association", func(t *testing.T) {
		af := random(rng, m, n, 0.03, cancelling)
		uf := vecOf(random(rng, 1, m, 2, cancelling))
		want := ref.NewVec[float64](n)
		ref.VxM[float64, float64, float64, bool](want, nil, nil, grb.PlusTimes[float64](), ref.FromVector(uf), ref.FromMatrix(af), ref.Desc{})
		lanes := grb.MustVector[float64](n)
		must(t, grb.VxM[float64, float64, float64, bool](lanes, nil, nil, grb.PlusTimes[float64](), uf, af, &grb.Descriptor{Dir: grb.DirPush}))
		if sameEntries(lanes, want, byBits) {
			t.Fatal("the chunked lanes agree with the mimic: the input does not tell the associations apart")
		}
		wide := widened(af, grb.BitmapMaxCells+1, 0)
		for _, dir := range []grb.Direction{grb.DirPush, grb.DirPull} {
			got := grb.MustVector[float64](wide.Ncols())
			must(t, grb.VxM[float64, float64, float64, bool](got, nil, nil, grb.PlusTimes[float64](), uf, wide, &grb.Descriptor{Dir: dir}))
			mustMatchEmbedded(t, fmt.Sprint(dir), got, want, byBits)
		}
	})
}

// widened returns a's entries in an a.Nrows()×width matrix, their columns
// moved right by offset.
func widened[T any](a *grb.Matrix[T], width, offset int) *grb.Matrix[T] {
	is, js, xs := a.ExtractTuples()
	for k := range js {
		js[k] += offset
	}
	b := grb.MustMatrix[T](a.Nrows(), width)
	if err := b.Build(is, js, xs, nil); err != nil {
		panic(err)
	}
	return b
}

// widenedVec returns v's entries in a vector of dimension width.
func widenedVec[T any](v *grb.Vector[T], width int) *grb.Vector[T] {
	is, xs := v.ExtractTuples()
	w := grb.MustVector[T](width)
	if err := w.Build(is, xs, nil); err != nil {
		panic(err)
	}
	return w
}

// sameEntries reports whether got holds exactly want's entries, at want's
// indices, by value or by bits; got may be wider than want.
func sameEntries[T comparable](got *grb.Vector[T], want *ref.Vec[T], bits bool) bool {
	gi, gx := got.ExtractTuples()
	k := 0
	for j, set := range want.Set {
		if !set {
			continue
		}
		if k == len(gi) || gi[k] != j || !same(gx[k], want.Val[j], bits) {
			return false
		}
		k++
	}
	return k == len(gi)
}

// mustMatchEmbedded fails unless got holds exactly want's entries.
func mustMatchEmbedded[T comparable](t *testing.T, label string, got *grb.Vector[T], want *ref.Vec[T], bits bool) {
	t.Helper()
	if !sameEntries(got, want, bits) {
		t.Fatalf("%s: the %d entries differ from the mimic's", label, got.Nvals())
	}
}

// TestVxMDirectionIsTheKernels asks VxMDirection for the direction of a
// product and then runs it: the answer is the kernel the op record names,
// under each rule of the DirAuto switch and under a forced direction.
func TestVxMDirectionIsTheKernels(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(2302))
	a := random(rng, n, n, 0.2, small)
	sparse, dense := vecOf(random(rng, 1, n, 0.04, small)), vecOf(random(rng, 1, n, 0.6, small))
	fewOutputs := grb.MustVector[bool](n)
	_ = fewOutputs.SetElement(3, true)
	_ = fewOutputs.SetElement(40, true)
	for _, tc := range []struct {
		name string
		u    *grb.Vector[int64]
		mask *grb.Vector[bool]
		d    grb.Descriptor
		want grb.Direction
	}{
		{"sparse frontier", sparse, nil, grb.Descriptor{}, grb.DirPush},
		{"dense frontier", dense, nil, grb.Descriptor{}, grb.DirPull},
		{"sparse positive mask", sparse, fewOutputs, grb.Descriptor{}, grb.DirPull},
		{"sparse complemented mask", sparse, fewOutputs, grb.Descriptor{Comp: true}, grb.DirPush},
		{"forced push", dense, nil, grb.Descriptor{Dir: grb.DirPush}, grb.DirPush},
		{"forced pull", sparse, nil, grb.Descriptor{Dir: grb.DirPull}, grb.DirPull},
	} {
		got := grb.VxMDirection(tc.mask, tc.u, a, &tc.d)
		trace := obs.NewTrace(4)
		restore := obs.Set(trace)
		err := grb.VxM(grb.MustVector[int64](n), tc.mask, nil, grb.PlusTimes[int64](), tc.u, a, &tc.d)
		obs.Set(restore)
		must(t, err)
		kernel := map[grb.Direction]string{grb.DirPush: "push", grb.DirPull: "pull"}[got]
		if op := trace.Ops()[0]; got != tc.want || op.Kernel != kernel {
			t.Errorf("%s: VxMDirection = %v, want %v; the product ran %q", tc.name, got, tc.want, op.Kernel)
		}
	}
}

// TestPullUnderAMaskAdmittingNothing: a pull computes the outputs its mask
// admits, and a mask can admit none — an empty structural mask, which the
// DirAuto switch sends to the pull as a sparse positive one, or a value
// mask whose stored entries are all false. Then it computes nothing: no dot
// is estimated, none is taken, and w is left empty.
func TestPullUnderAMaskAdmittingNothing(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(2903))
	a := random(rng, n, n, 0.2, small)
	u := vecOf(random(rng, 1, n, 0.5, small))
	empty := grb.MustVector[bool](n)
	allFalse := grb.MustVector[bool](n)
	for j := 0; j < n; j += 3 {
		_ = allFalse.SetElement(j, false)
	}
	allFalse.Wait()
	for _, tc := range []struct {
		name string
		mask *grb.Vector[bool]
		d    grb.Descriptor
	}{
		{"empty structural mask", empty, grb.Descriptor{}},
		{"all-false value mask", allFalse, grb.Descriptor{MaskValue: true, Dir: grb.DirPull}},
	} {
		for _, op := range []struct {
			name string
			run  func(w *grb.Vector[int64]) error
		}{
			{"vxm", func(w *grb.Vector[int64]) error {
				return grb.VxM(w, tc.mask, nil, grb.PlusTimes[int64](), u, a, &tc.d)
			}},
			{"mxv", func(w *grb.Vector[int64]) error {
				return grb.MxV(w, tc.mask, nil, grb.PlusTimes[int64](), a, u, &tc.d)
			}},
		} {
			trace := obs.NewTrace(4)
			restore := obs.Set(trace)
			w := grb.MustVector[int64](n)
			err := op.run(w)
			obs.Set(restore)
			must(t, err)
			rec := trace.Ops()[0]
			if w.Nvals() != 0 || rec.Kernel != "pull" || rec.EstFlops != 0 || rec.NnzOut != 0 {
				t.Errorf("%s under an %s: %d entries, op record %+v; want an empty pull estimating 0 flops", op.name, tc.name, w.Nvals(), rec)
			}
		}
	}
}
