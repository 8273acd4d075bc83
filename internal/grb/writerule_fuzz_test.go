package grb_test

// The in-place write route against the merge route, and a Vector's
// mutation history against the mimic. One byte-coded program drives four
// holders of the same logical vector through the same history:
//
//   - dense: a Vector re-held densely before every step, so pending
//     tuples, removals and the write rule all land on the dense form;
//   - plain: a Vector left to the promotion rule;
//   - merged: the wide twin, a 1×(BitmapMaxCells+1) Matrix whose entries sit
//     in its first n columns; past the dense cell cap it never takes the
//     dense form, so every one of its writes takes the merge (or adopt)
//     route;
//   - want: the dense mimic (§II-A's methodology, extended from single
//     operations to histories).
//
// After every step all four must agree in value and pattern.

import (
	"math/rand"
	"testing"

	"lagraph/internal/grb"
	"lagraph/internal/grb/ref"
)

// progReader hands out program bytes, zeros once they run out.
type progReader struct {
	b []byte
	p int
}

func (r *progReader) next() int {
	if r.p >= len(r.b) {
		r.p++
		return 0
	}
	v := int(r.b[r.p])
	r.p++
	return v
}

func (r *progReader) done() bool { return r.p >= len(r.b) }

// runWriteProgram interprets prog and fails on the first disagreement.
func runWriteProgram(t *testing.T, prog []byte) {
	t.Helper()
	r := &progReader{b: prog}
	n := 1 + r.next()%24
	dense := grb.MustVector[int64](n)
	plain := grb.MustVector[int64](n)
	merged := wideTwin[int64]()
	want := ref.NewVec[int64](n)
	plus := grb.Plus[int64]()
	ident := func(x int64) int64 { return x }

	// operand draws a z vector (or mask values) of a few entries.
	draw := func() (idx []int, xs []int64) {
		cnt := r.next() % (n + 1)
		seen := map[int]bool{}
		for k := 0; k < cnt; k++ {
			i := r.next() % n
			if seen[i] {
				continue
			}
			seen[i] = true
			idx = append(idx, i)
			xs = append(xs, int64(r.next()%7)-3)
		}
		return
	}

	for step := 0; !r.done() && step < 64; step++ {
		dense.Hold("dense")
		op := r.next() % 8
		switch op {
		case 0: // SetElement
			i, x := r.next()%n, int64(r.next()%7)-3
			_ = dense.SetElement(i, x)
			_ = plain.SetElement(i, x)
			_ = merged.SetElement(0, i, x)
			want.Val[i], want.Set[i] = x, true
		case 1: // RemoveElement
			i := r.next() % n
			_ = dense.RemoveElement(i)
			_ = plain.RemoveElement(i)
			_ = merged.RemoveElement(0, i)
			want.Set[i] = false
		case 2: // MergeElement
			i, x := r.next()%n, int64(r.next()%7)-3
			_ = dense.MergeElement(i, x, plus)
			_ = plain.MergeElement(i, x, plus)
			_ = merged.MergeElement(0, i, x, plus)
			if want.Set[i] {
				want.Val[i] += x
			} else {
				want.Val[i], want.Set[i] = x, true
			}
		case 3: // Wait: completes both forms
			dense.Wait()
			plain.Wait()
			merged.Wait()
		case 4: // Dup: the copy carries the authoritative form
			dense = dense.Dup()
			plain = plain.Dup()
			merged = merged.Dup()
		default: // the write rule: w⟨mask⟩ ⊙= z, and the assigns
			kind := r.next() % 5
			d := grb.Descriptor{Comp: kind == 2 || kind == 4, MaskValue: kind >= 3, Replace: r.next()%2 == 1}
			var accum grb.BinaryOp[int64, int64, int64]
			if r.next()%2 == 1 {
				accum = plus
			}
			var maskV *grb.Vector[bool]
			var maskM *grb.Matrix[bool]
			var maskR *ref.Vec[bool]
			if kind != 0 {
				mi, mx := draw()
				maskV, maskM, maskR = grb.MustVector[bool](n), wideTwin[bool](), ref.NewVec[bool](n)
				for k, i := range mi {
					b := mx[k] > 0
					_ = maskV.SetElement(i, b)
					_ = maskM.SetElement(0, i, b)
					maskR.Val[i], maskR.Set[i] = b, true
				}
				if r.next()%2 == 1 {
					maskV.Hold("dense")
				}
			}
			if op >= 6 { // assign over a drawn region, or all of w
				// idx is the region (nil: all of w), rows × cols the same one
				// on the twin, and u the operand over it: a drawn vector for
				// the assign step, the scalar everywhere for the scalar one.
				var idx []int
				rows, cols, un := []int{0}, firstN(n), n
				if r.next()%2 == 1 {
					drawn, _ := draw()
					idx = append([]int{}, drawn...) // never nil: an empty region is not All
					cols, un = idx, len(idx)
				}
				s := int64(r.next()%7) - 3
				uV, uM, uR := grb.MustVector[int64](un), grb.MustMatrix[int64](1, un), ref.NewVec[int64](un)
				for i := 0; i < un; i++ {
					x := s
					if op == 6 {
						if r.next()%2 == 0 {
							continue
						}
						x = int64(r.next()%7) - 3
					}
					_ = uV.SetElement(i, x)
					_ = uM.SetElement(0, i, x)
					uR.Val[i], uR.Set[i] = x, true
				}
				if op == 6 {
					must(t, grb.AssignVector(dense, maskV, accum, uV, idx, &d))
					must(t, grb.AssignVector(plain, maskV, accum, uV, idx, &d))
					must(t, grb.AssignMatrix(merged, maskM, accum, uM, rows, cols, &d))
				} else {
					must(t, grb.AssignVectorScalar(dense, maskV, accum, s, idx, &d))
					must(t, grb.AssignVectorScalar(plain, maskV, accum, s, idx, &d))
					must(t, grb.AssignMatrixScalar(merged, maskM, accum, s, rows, cols, &d))
				}
				ref.AssignVec(want, maskR, accum, uR, idx, refDesc(d))
				break
			}
			zi, zx := draw()
			zV, zM, zR := grb.MustVector[int64](n), wideTwin[int64](), ref.NewVec[int64](n)
			for k, i := range zi {
				_ = zV.SetElement(i, zx[k])
				_ = zM.SetElement(0, i, zx[k])
				zR.Val[i], zR.Set[i] = zx[k], true
			}
			must(t, grb.ApplyVector(dense, maskV, accum, ident, zV, &d))
			must(t, grb.ApplyVector(plain, maskV, accum, ident, zV, &d))
			must(t, grb.ApplyMatrix(merged, maskM, accum, ident, zM, &d))
			ref.ApplyVec(want, maskR, accum, ident, zR, refDesc(d))
		}
		mustMatch[int64](t, "", dense, want, byValue)
		mustMatch[int64](t, "", plain, want, byValue)
		mustMatchWideTwin(t, merged, want)
		mustSerializeLikeTwin[int64](t, "", dense)
	}
}

// mustReduceLikeMimic fails unless u — held as the promotion rule leaves
// it and re-held densely — and its wide twin reduce, under mon and under
// its literal twin, to what the mimic's entries fold to from the identity.
func mustReduceLikeMimic[T comparable](t *testing.T, mon grb.Monoid[T], u *grb.Vector[T], uM *grb.Matrix[T], uR *ref.Vec[T]) {
	t.Helper()
	want := mon.Identity
	for i, ok := range uR.Set {
		if ok {
			want = mon.Op(want, uR.Val[i])
		}
	}
	held := u.Dup()
	held.Hold("dense")
	for _, m := range []grb.Monoid[T]{mon, literalMonoid(mon)} {
		for _, v := range []*grb.Vector[T]{u, held} {
			got, err := grb.ReduceVectorToScalar(m, v)
			must(t, err)
			if got != want {
				t.Fatalf("vector reduces to %v, mimic to %v", got, want)
			}
		}
		got, err := grb.ReduceMatrixToScalar(m, uM)
		must(t, err)
		row := grb.MustVector[T](1)
		must(t, grb.ReduceMatrixToVector[T, bool](row, nil, nil, m, uM, nil))
		if r, err := row.GetElement(0); got != want || (uM.Nvals() > 0) != (err == nil) || err == nil && r != want {
			t.Fatalf("wide twin reduces to %v and its row to %v (%v), mimic to %v", got, r, err, want)
		}
	}
}

// wideTwin returns an empty 1×(BitmapMaxCells+1) matrix: one column past
// the dense cell cap, so it never takes the dense form. It stands in for
// an n-vector by holding entries only in its first n columns.
func wideTwin[T any]() *grb.Matrix[T] {
	return grb.MustMatrix[T](1, grb.BitmapMaxCells+1)
}

// firstN returns the index list 0, 1, …, n-1.
func firstN(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// mustMatchWideTwin fails unless the wide twin stayed compressed and its
// first len(want) columns, read back through an index list, equal want.
func mustMatchWideTwin(t *testing.T, twin *grb.Matrix[int64], want *ref.Vec[int64]) {
	t.Helper()
	if dense, _ := twin.Forms(); dense {
		t.Fatal("the wide twin took the dense form")
	}
	n := len(want.Set)
	row := grb.MustVector[int64](n)
	must(t, grb.ExtractMatrixCol(row, (*grb.Vector[bool])(nil), nil, twin, firstN(n), 0, grb.DescT0))
	mustMatch[int64](t, "", row, want, byValue)
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// FuzzWriteRuleInPlace searches for a history on which the in-place route
// (or pending tuples, removals and zombies applied to a dense vector)
// disagrees with the merge route or the mimic.
func FuzzWriteRuleInPlace(f *testing.F) {
	f.Add([]byte{7, 0, 1, 5, 0, 2, 6, 5, 1, 0, 1, 3, 0, 4, 1, 2, 2, 3, 1, 3, 5})
	f.Add([]byte{15, 5, 0, 0, 1, 9, 1, 4, 2, 6, 5, 3, 1, 0, 4, 1, 4, 0, 2, 3, 3, 1, 2, 5, 7, 2, 0, 1, 0, 6})
	f.Add([]byte{3, 2, 1, 4, 2, 1, 5, 1, 1, 6, 4, 1, 1, 2, 0, 1, 3, 7, 3, 1, 0, 2, 1, 4, 1, 5})
	f.Add([]byte{23, 7, 1, 0, 0, 12, 3, 5, 6, 2, 1, 1, 20, 0, 4, 1, 6, 2, 9, 5, 10, 4, 1, 3, 1, 2, 0, 0, 3, 4})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 512 {
			return
		}
		runWriteProgram(t, prog)
	})
}

// TestVectorMutationHistoryVsMimic runs seeded random histories through
// the same interpreter on every `go test`: insert / remove / accumulate /
// wait / dup / masked writes, compared with the mimic after every step.
func TestVectorMutationHistoryVsMimic(t *testing.T) {
	rng := rand.New(rand.NewSource(1604))
	for trial := 0; trial < 400; trial++ {
		prog := make([]byte, 40+rng.Intn(160))
		rng.Read(prog)
		runWriteProgram(t, prog)
	}
}

// runRouteProgram interprets prog as one operation of the dense result
// route — operands, output and mask drawn at a fill on either side of the
// promotion bar — and runs it through four implementations: vectors
// re-held densely (lane kernels, dense write arms), vectors left to the
// promotion rule, wide twins (which never take the dense form, so the same
// operation takes the sorted-merge kernels and the merge route) and the
// mimic. All four must agree in value and pattern, and the
// two vectors must serialize to the bytes of a never-dense twin.
func runRouteProgram(t *testing.T, prog []byte) {
	t.Helper()
	r := &progReader{b: prog}
	n := 8 + r.next()%56
	// draw fills a vector holder, its matrix twin and its mimic at one of
	// three fills: below the promotion bar, above it, full.
	draw := func() (*grb.Vector[int64], *grb.Matrix[int64], *ref.Vec[int64]) {
		v, m, rv := grb.MustVector[int64](n), wideTwin[int64](), ref.NewVec[int64](n)
		every := []int{16, 2, 1}[r.next()%3]
		for i := 0; i < n; i++ {
			if every > 1 && r.next()%every != 0 {
				continue
			}
			x := int64(r.next()%7) - 3
			_ = v.SetElement(i, x)
			_ = m.SetElement(0, i, x)
			rv.Val[i], rv.Set[i] = x, true
		}
		return v, m, rv
	}
	u, uM, uR := draw()
	v, vM, vR := draw()
	plain, merged, want := draw()
	dense := plain.Dup()

	kind := r.next() % 5
	d := grb.Descriptor{Comp: kind == 2 || kind == 4, MaskValue: kind >= 3, Replace: r.next()%2 == 1}
	var accum grb.BinaryOp[int64, int64, int64]
	if r.next()%2 == 1 {
		accum = grb.Plus[int64]()
	}
	var maskV *grb.Vector[bool]
	var maskM *grb.Matrix[bool]
	var maskR *ref.Vec[bool]
	if kind != 0 {
		maskV, maskM, maskR = grb.MustVector[bool](n), wideTwin[bool](), ref.NewVec[bool](n)
		every := []int{16, 2}[r.next()%2]
		for i := 0; i < n; i++ {
			if r.next()%every == 0 {
				b := r.next()%2 == 1
				_ = maskV.SetElement(i, b)
				_ = maskM.SetElement(0, i, b)
				maskR.Val[i], maskR.Set[i] = b, true
			}
		}
	}
	hold := func(x *grb.Vector[int64]) *grb.Vector[int64] {
		x = x.Dup()
		x.Hold("dense")
		return x
	}
	dense.Hold("dense")
	var maskD *grb.Vector[bool]
	if maskV != nil {
		maskD = maskV.Dup()
		maskD.Hold("dense")
	}
	minus := grb.Minus[int64]()
	neg := func(x int64) int64 { return -x }
	rd := refDesc(d)
	switch r.next() % 9 {
	case 0:
		must(t, grb.EWiseAddVector(dense, maskD, accum, minus, hold(u), hold(v), &d))
		must(t, grb.EWiseAddVector(plain, maskV, accum, minus, u, v, &d))
		must(t, grb.EWiseAddMatrix(merged, maskM, accum, minus, uM, vM, &d))
		ref.EWiseAddVec(want, maskR, accum, minus, uR, vR, rd)
	case 1:
		must(t, grb.EWiseMultVector(dense, maskD, accum, minus, hold(u), hold(v), &d))
		must(t, grb.EWiseMultVector(plain, maskV, accum, minus, u, v, &d))
		must(t, grb.EWiseMultMatrix(merged, maskM, accum, minus, uM, vM, &d))
		ref.EWiseMultVec(want, maskR, accum, minus, uR, vR, rd)
	case 2:
		must(t, grb.ApplyVector(dense, maskD, accum, neg, hold(u), &d))
		must(t, grb.ApplyVector(plain, maskV, accum, neg, u, &d))
		must(t, grb.ApplyMatrix(merged, maskM, accum, neg, uM, &d))
		ref.ApplyVec(want, maskR, accum, neg, uR, rd)
	case 3:
		keep := grb.ValueGT[int64](0)
		must(t, grb.SelectVector(dense, maskD, accum, keep, hold(u), &d))
		must(t, grb.SelectVector(plain, maskV, accum, keep, u, &d))
		must(t, grb.SelectMatrix(merged, maskM, accum, keep, uM, &d))
		ref.SelectVec(want, maskR, accum, keep, uR, rd)
	case 4: // gather with duplicates
		idx := make([]int, n)
		for t := range idx {
			idx[t] = r.next() % n
		}
		must(t, grb.ExtractVector(dense, maskD, accum, hold(u), idx, &d))
		must(t, grb.ExtractVector(plain, maskV, accum, u, idx, &d))
		// The twin's output is wide, so it cannot be the 1×n extract
		// result: it gathers z alone, then writes it through the same
		// write rule as every other case.
		zN := grb.MustMatrix[int64](1, n)
		must(t, grb.ExtractMatrix[int64, bool](zN, nil, nil, uM, []int{0}, idx, nil))
		zi, zj, zx := zN.ExtractTuples()
		z := wideTwin[int64]()
		must(t, z.Build(zi, zj, zx, nil))
		must(t, grb.ApplyMatrix(merged, maskM, accum, func(x int64) int64 { return x }, z, &d))
		ref.ExtractVec(want, maskR, accum, uR, idx, rd)
	case 6: // apply through an accumulator whose argument order shows
		must(t, grb.ApplyVector(dense, maskD, minus, neg, hold(u), &d))
		must(t, grb.ApplyVector(plain, maskV, minus, neg, u, &d))
		must(t, grb.ApplyMatrix(merged, maskM, minus, neg, uM, &d))
		ref.ApplyVec(want, maskR, minus, neg, uR, rd)
	case 7: // a full operand meets a partial one
		f, fM, fR := grb.MustVector[int64](n), wideTwin[int64](), ref.NewVec[int64](n)
		for i := 0; i < n; i++ {
			x := int64(r.next()%7) - 3
			_ = f.SetElement(i, x)
			_ = fM.SetElement(0, i, x)
			fR.Val[i], fR.Set[i] = x, true
		}
		must(t, grb.EWiseMultVector(dense, maskD, accum, minus, hold(f), hold(v), &d))
		must(t, grb.EWiseMultVector(plain, maskV, accum, minus, f, v, &d))
		must(t, grb.EWiseMultMatrix(merged, maskM, accum, minus, fM, vM, &d))
		ref.EWiseMultVec(want, maskR, accum, minus, fR, vR, rd)
	case 8: // the three reductions, tagged and literal; the output stays put
		for _, mon := range []grb.Monoid[int64]{grb.PlusMonoid[int64](), grb.TimesMonoid[int64](), grb.MinMonoid[int64](), grb.MaxMonoid[int64]()} {
			mustReduceLikeMimic(t, mon, u, uM, uR)
		}
		pos := func(x int64) bool { return x > 0 }
		b, bM, bR := grb.MustVector[bool](n), wideTwin[bool](), ref.NewVec[bool](n)
		must(t, grb.ApplyVector[int64, bool, bool](b, nil, nil, pos, u, nil))
		must(t, grb.ApplyMatrix[int64, bool, bool](bM, nil, nil, pos, uM, nil))
		for i, ok := range uR.Set {
			bR.Val[i], bR.Set[i] = pos(uR.Val[i]), ok
		}
		for _, mon := range []grb.Monoid[bool]{grb.LOrMonoid(), grb.LAndMonoid()} {
			mustReduceLikeMimic(t, mon, b, bM, bR)
		}
	default:
		must(t, grb.AssignVector(dense, maskD, accum, hold(u), grb.All, &d))
		must(t, grb.AssignVector(plain, maskV, accum, u, grb.All, &d))
		must(t, grb.AssignMatrix(merged, maskM, accum, uM, grb.All, grb.All, &d))
		ref.AssignVec(want, maskR, accum, uR, nil, rd)
	}
	mustMatch[int64](t, "", dense, want, byValue)
	mustMatch[int64](t, "", plain, want, byValue)
	mustMatchWideTwin(t, merged, want)
	if dp, _ := plain.Forms(); dp && plain.Nvals()*8 < n {
		t.Fatalf("%d of %d entries held densely by the promotion rule", plain.Nvals(), n)
	}
	mustSerializeLikeTwin[int64](t, "", dense)
	mustSerializeLikeTwin[int64](t, "", plain)
}

// FuzzDenseResultRoute searches for an operation on which the dense result
// route disagrees with the merge route or the mimic.
func FuzzDenseResultRoute(f *testing.F) {
	f.Add([]byte{40, 1, 2, 0, 1, 3, 2, 1, 1, 4, 0, 1, 1, 0, 5, 2, 3, 1, 1, 0})
	f.Add([]byte{9, 2, 5, 5, 5, 5, 5, 5, 5, 5, 5, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 3, 1, 0, 4, 4})
	f.Add([]byte{63, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 2, 2, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 1024 {
			return
		}
		runRouteProgram(t, prog)
	})
}

// TestDenseResultRouteVsMergeRoute runs seeded random operations through
// the same interpreter on every `go test`.
func TestDenseResultRouteVsMergeRoute(t *testing.T) {
	rng := rand.New(rand.NewSource(1705))
	for trial := 0; trial < 1500; trial++ {
		prog := make([]byte, 200+rng.Intn(500))
		rng.Read(prog)
		runRouteProgram(t, prog)
	}
}
