package grb_test

// Conformance over storage forms (CONTRIBUTING rule 3, extended): every
// Table I operation runs with each {compressed, dense-held} combination of
// output, mask and operands × masks {none, structural, complemented,
// value, complemented value} × accumulator {nil, plus} × replace {on, off}
// and must agree with the dense mimic in value and pattern. The dense-held
// cases drive the write rule's in-place route, dense mask probes and the
// probing element-wise kernels at sizes the promotion rule would never
// pick by itself.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"lagraph/internal/grb"
	"lagraph/internal/grb/ref"
)

// storageCase says which of an operation's objects are dense-held.
type storageCase struct {
	name        string
	c, mask, in bool
}

func storageCases() []storageCase {
	var out []storageCase
	for _, c := range []bool{false, true} {
		for _, m := range []bool{false, true} {
			for _, in := range []bool{false, true} {
				form := func(b bool) string {
					if b {
						return "d"
					}
					return "s"
				}
				out = append(out, storageCase{"C" + form(c) + "M" + form(m) + "A" + form(in), c, m, in})
			}
		}
	}
	return out
}

// writeCases is masks {none, structural, complemented, value, complemented
// value} × replace {off, on} (replace without a mask is the no-mask case).
func writeCases() []maskCase {
	out := []maskCase{{"nomask", false, grb.Descriptor{}}}
	for _, replace := range []bool{false, true} {
		for _, m := range []struct {
			name        string
			comp, value bool
		}{{"struct", false, false}, {"comp", true, false}, {"value", false, true}, {"compvalue", true, true}} {
			name := m.name
			if replace {
				name += "+replace"
			}
			out = append(out, maskCase{name, true, grb.Descriptor{Comp: m.comp, MaskValue: m.value, Replace: replace}})
		}
	}
	return out
}

func randBoolMatrix(rng *rand.Rand, nr, nc int, density float64) *grb.Matrix[bool] {
	a := grb.MustMatrix[bool](nr, nc)
	for i := 0; i < nr; i++ {
		for j := 0; j < nc; j++ {
			if rng.Float64() < density {
				_ = a.SetElement(i, j, rng.Intn(2) == 0)
			}
		}
	}
	a.Wait()
	return a
}

func randBoolVector(rng *rand.Rand, n int, density float64) *grb.Vector[bool] {
	v := grb.MustVector[bool](n)
	for i := 0; i < n; i++ {
		if rng.Float64() < density {
			_ = v.SetElement(i, rng.Intn(2) == 0)
		}
	}
	v.Wait()
	return v
}

// heldM returns a copy of a, dense-held when dense is set.
func heldM[T any](a *grb.Matrix[T], dense bool) *grb.Matrix[T] {
	b := a.Dup()
	if dense && !grb.HoldDenseMatrix(b) {
		panic("test matrix beyond the dense cap")
	}
	return b
}

// heldV returns a copy of v, dense-held when dense is set.
func heldV[T any](v *grb.Vector[T], dense bool) *grb.Vector[T] {
	w := v.Dup()
	if dense && !grb.HoldDense(w) {
		panic("test vector beyond the dense cap")
	}
	return w
}

// matOp is one matrix-output operation in both implementations.
type matOp struct {
	name string
	rows int // output shape
	cols int
	grb  func(c *grb.Matrix[int64], mask *grb.Matrix[bool], accum grb.BinaryOp[int64, int64, int64], d *grb.Descriptor, dense bool) error
	ref  func(c *ref.Mat[int64], mask *ref.Mat[bool], accum grb.BinaryOp[int64, int64, int64], d ref.Desc)
}

// vecOp is one vector-output operation in both implementations.
type vecOp struct {
	name string
	n    int
	grb  func(w *grb.Vector[int64], mask *grb.Vector[bool], accum grb.BinaryOp[int64, int64, int64], d *grb.Descriptor, dense bool) error
	ref  func(w *ref.Vec[int64], mask *ref.Vec[bool], accum grb.BinaryOp[int64, int64, int64], d ref.Desc)
}

func TestConformanceStorageFormsMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(1601))
	plus, times := grb.Plus[int64](), grb.Times[int64]()
	neg := func(x int64) int64 { return -x }
	for trial := 0; trial < 4; trial++ {
		m, k, n := 2+rng.Intn(9), 2+rng.Intn(9), 2+rng.Intn(9)
		a := randMatrix(rng, m, n, 0.35)
		b := randMatrix(rng, m, n, 0.35)
		left := randMatrix(rng, m, k, 0.4)
		right := randMatrix(rng, k, n, 0.4)
		at := randMatrix(rng, n, m, 0.35)
		big := randMatrix(rng, m+3, n+2, 0.4)
		rows, cols := uniqueIdx(rng, m+3, m), uniqueIdx(rng, n+2, n)
		sr, sc := 1+rng.Intn(m), 1+rng.Intn(n)
		sub := randMatrix(rng, sr, sc, 0.6)
		subRows, subCols := uniqueIdx(rng, m, sr), uniqueIdx(rng, n, sc)
		ops := []matOp{
			{"mxm", m, n,
				func(c *grb.Matrix[int64], mask *grb.Matrix[bool], accum grb.BinaryOp[int64, int64, int64], d *grb.Descriptor, dense bool) error {
					return grb.MxM(c, mask, accum, grb.PlusTimes[int64](), heldM(left, dense), heldM(right, dense), d)
				},
				func(c *ref.Mat[int64], mask *ref.Mat[bool], accum grb.BinaryOp[int64, int64, int64], d ref.Desc) {
					ref.MxM(c, mask, accum, grb.PlusTimes[int64](), ref.FromMatrix(left), ref.FromMatrix(right), d)
				}},
			{"eWiseAdd", m, n,
				func(c *grb.Matrix[int64], mask *grb.Matrix[bool], accum grb.BinaryOp[int64, int64, int64], d *grb.Descriptor, dense bool) error {
					return grb.EWiseAddMatrix(c, mask, accum, plus, heldM(a, dense), heldM(b, dense), d)
				},
				func(c *ref.Mat[int64], mask *ref.Mat[bool], accum grb.BinaryOp[int64, int64, int64], d ref.Desc) {
					ref.EWiseAddMat(c, mask, accum, plus, ref.FromMatrix(a), ref.FromMatrix(b), d)
				}},
			{"eWiseMult", m, n,
				func(c *grb.Matrix[int64], mask *grb.Matrix[bool], accum grb.BinaryOp[int64, int64, int64], d *grb.Descriptor, dense bool) error {
					return grb.EWiseMultMatrix(c, mask, accum, times, heldM(a, dense), heldM(b, dense), d)
				},
				func(c *ref.Mat[int64], mask *ref.Mat[bool], accum grb.BinaryOp[int64, int64, int64], d ref.Desc) {
					ref.EWiseMultMat(c, mask, accum, times, ref.FromMatrix(a), ref.FromMatrix(b), d)
				}},
			{"eWiseMult/mixed", m, n, // one operand dense-held, the other compressed
				func(c *grb.Matrix[int64], mask *grb.Matrix[bool], accum grb.BinaryOp[int64, int64, int64], d *grb.Descriptor, dense bool) error {
					return grb.EWiseMultMatrix(c, mask, accum, times, heldM(a, dense), heldM(b, !dense), d)
				},
				func(c *ref.Mat[int64], mask *ref.Mat[bool], accum grb.BinaryOp[int64, int64, int64], d ref.Desc) {
					ref.EWiseMultMat(c, mask, accum, times, ref.FromMatrix(a), ref.FromMatrix(b), d)
				}},
			{"apply", m, n,
				func(c *grb.Matrix[int64], mask *grb.Matrix[bool], accum grb.BinaryOp[int64, int64, int64], d *grb.Descriptor, dense bool) error {
					return grb.ApplyMatrix(c, mask, accum, neg, heldM(a, dense), d)
				},
				func(c *ref.Mat[int64], mask *ref.Mat[bool], accum grb.BinaryOp[int64, int64, int64], d ref.Desc) {
					ref.Apply(c, mask, accum, neg, ref.FromMatrix(a), d)
				}},
			{"select", m, n,
				func(c *grb.Matrix[int64], mask *grb.Matrix[bool], accum grb.BinaryOp[int64, int64, int64], d *grb.Descriptor, dense bool) error {
					return grb.SelectMatrix(c, mask, accum, grb.ValueGT[int64](0), heldM(a, dense), d)
				},
				func(c *ref.Mat[int64], mask *ref.Mat[bool], accum grb.BinaryOp[int64, int64, int64], d ref.Desc) {
					ref.Select(c, mask, accum, grb.ValueGT[int64](0), ref.FromMatrix(a), d)
				}},
			{"transpose", m, n,
				func(c *grb.Matrix[int64], mask *grb.Matrix[bool], accum grb.BinaryOp[int64, int64, int64], d *grb.Descriptor, dense bool) error {
					return grb.Transpose(c, mask, accum, heldM(at, dense), d)
				},
				func(c *ref.Mat[int64], mask *ref.Mat[bool], accum grb.BinaryOp[int64, int64, int64], d ref.Desc) {
					ref.Transpose(c, mask, accum, ref.FromMatrix(at), d)
				}},
			{"extract", m, n,
				func(c *grb.Matrix[int64], mask *grb.Matrix[bool], accum grb.BinaryOp[int64, int64, int64], d *grb.Descriptor, dense bool) error {
					return grb.ExtractMatrix(c, mask, accum, heldM(big, dense), rows, cols, d)
				},
				func(c *ref.Mat[int64], mask *ref.Mat[bool], accum grb.BinaryOp[int64, int64, int64], d ref.Desc) {
					ref.Extract(c, mask, accum, ref.FromMatrix(big), rows, cols, d)
				}},
			{"assign/all", m, n,
				func(c *grb.Matrix[int64], mask *grb.Matrix[bool], accum grb.BinaryOp[int64, int64, int64], d *grb.Descriptor, dense bool) error {
					return grb.AssignMatrix(c, mask, accum, heldM(a, dense), grb.All, grb.All, d)
				},
				func(c *ref.Mat[int64], mask *ref.Mat[bool], accum grb.BinaryOp[int64, int64, int64], d ref.Desc) {
					ref.Assign(c, mask, accum, ref.FromMatrix(a), nil, nil, d)
				}},
			{"assign/region", m, n,
				func(c *grb.Matrix[int64], mask *grb.Matrix[bool], accum grb.BinaryOp[int64, int64, int64], d *grb.Descriptor, dense bool) error {
					return grb.AssignMatrix(c, mask, accum, heldM(sub, dense), subRows, subCols, d)
				},
				func(c *ref.Mat[int64], mask *ref.Mat[bool], accum grb.BinaryOp[int64, int64, int64], d ref.Desc) {
					ref.Assign(c, mask, accum, ref.FromMatrix(sub), subRows, subCols, d)
				}},
		}
		cInit := randMatrix(rng, m, n, 0.4)
		mask := randBoolMatrix(rng, m, n, 0.5)
		for _, op := range ops {
			for _, wc := range writeCases() {
				for _, accum := range []grb.BinaryOp[int64, int64, int64]{nil, plus} {
					want := ref.FromMatrix(cInit)
					var rm *ref.Mat[bool]
					if wc.useMask {
						rm = ref.FromMatrix(mask)
					}
					op.ref(want, rm, accum, refDesc(wc.desc))
					for _, sc := range storageCases() {
						if !wc.useMask && sc.mask {
							continue
						}
						t.Run(fmt.Sprintf("t%d/%s/%s/accum=%v/%s", trial, op.name, wc.name, accum != nil, sc.name), func(t *testing.T) {
							c := heldM(cInit, sc.c)
							var gm *grb.Matrix[bool]
							if wc.useMask {
								gm = heldM(mask, sc.mask)
							}
							d := wc.desc
							if err := op.grb(c, gm, accum, &d, sc.in); err != nil {
								t.Fatal(err)
							}
							eqMat(t, c, want)
							mustSerializeLikeTwin(t, c)
						})
					}
				}
			}
		}
	}
}

func TestConformanceStorageFormsVector(t *testing.T) {
	rng := rand.New(rand.NewSource(1602))
	plus, times := grb.Plus[int64](), grb.Times[int64]()
	neg := func(x int64) int64 { return -x }
	for trial := 0; trial < 4; trial++ {
		m, n := 2+rng.Intn(12), 2+rng.Intn(12)
		u := randVector(rng, n, 0.4)
		v := randVector(rng, n, 0.4)
		um := randVector(rng, m, 0.5)
		a := randMatrix(rng, m, n, 0.4)
		big := randVector(rng, n+4, 0.5)
		idx := uniqueIdx(rng, n+4, n)
		sn := 1 + rng.Intn(n)
		sub := randVector(rng, sn, 0.7)
		full := grb.MustVector[int64](sn)
		for i := 0; i < sn; i++ {
			_ = full.SetElement(i, int64(i-2))
		}
		subIdx := uniqueIdx(rng, n, sn)
		const scalar = int64(7)
		allScalar := ref.NewVec[int64](n)
		for i := 0; i < n; i++ {
			allScalar.Val[i], allScalar.Set[i] = scalar, true
		}
		ops := []vecOp{
			{"vxm", n,
				func(w *grb.Vector[int64], mask *grb.Vector[bool], accum grb.BinaryOp[int64, int64, int64], d *grb.Descriptor, dense bool) error {
					return grb.VxM(w, mask, accum, grb.PlusTimes[int64](), heldV(um, dense), a, d)
				},
				func(w *ref.Vec[int64], mask *ref.Vec[bool], accum grb.BinaryOp[int64, int64, int64], d ref.Desc) {
					ref.VxM(w, mask, accum, grb.PlusTimes[int64](), ref.FromVector(um), ref.FromMatrix(a), d)
				}},
			{"vxm/pull", n,
				func(w *grb.Vector[int64], mask *grb.Vector[bool], accum grb.BinaryOp[int64, int64, int64], d *grb.Descriptor, dense bool) error {
					dd := *d
					dd.Dir = grb.DirPull
					return grb.VxM(w, mask, accum, grb.PlusTimes[int64](), heldV(um, dense), a, &dd)
				},
				func(w *ref.Vec[int64], mask *ref.Vec[bool], accum grb.BinaryOp[int64, int64, int64], d ref.Desc) {
					ref.VxM(w, mask, accum, grb.PlusTimes[int64](), ref.FromVector(um), ref.FromMatrix(a), d)
				}},
			{"mxv", m,
				func(w *grb.Vector[int64], mask *grb.Vector[bool], accum grb.BinaryOp[int64, int64, int64], d *grb.Descriptor, dense bool) error {
					return grb.MxV(w, mask, accum, grb.PlusTimes[int64](), a, heldV(u, dense), d)
				},
				func(w *ref.Vec[int64], mask *ref.Vec[bool], accum grb.BinaryOp[int64, int64, int64], d ref.Desc) {
					ref.MxV(w, mask, accum, grb.PlusTimes[int64](), ref.FromMatrix(a), ref.FromVector(u), d)
				}},
			{"eWiseAdd", n,
				func(w *grb.Vector[int64], mask *grb.Vector[bool], accum grb.BinaryOp[int64, int64, int64], d *grb.Descriptor, dense bool) error {
					return grb.EWiseAddVector(w, mask, accum, plus, heldV(u, dense), heldV(v, dense), d)
				},
				func(w *ref.Vec[int64], mask *ref.Vec[bool], accum grb.BinaryOp[int64, int64, int64], d ref.Desc) {
					ref.EWiseAddVec(w, mask, accum, plus, ref.FromVector(u), ref.FromVector(v), d)
				}},
			{"eWiseMult", n,
				func(w *grb.Vector[int64], mask *grb.Vector[bool], accum grb.BinaryOp[int64, int64, int64], d *grb.Descriptor, dense bool) error {
					return grb.EWiseMultVector(w, mask, accum, times, heldV(u, dense), heldV(v, dense), d)
				},
				func(w *ref.Vec[int64], mask *ref.Vec[bool], accum grb.BinaryOp[int64, int64, int64], d ref.Desc) {
					ref.EWiseMultVec(w, mask, accum, times, ref.FromVector(u), ref.FromVector(v), d)
				}},
			{"eWiseMult/mixed", n,
				func(w *grb.Vector[int64], mask *grb.Vector[bool], accum grb.BinaryOp[int64, int64, int64], d *grb.Descriptor, dense bool) error {
					return grb.EWiseMultVector(w, mask, accum, times, heldV(u, dense), heldV(v, !dense), d)
				},
				func(w *ref.Vec[int64], mask *ref.Vec[bool], accum grb.BinaryOp[int64, int64, int64], d ref.Desc) {
					ref.EWiseMultVec(w, mask, accum, times, ref.FromVector(u), ref.FromVector(v), d)
				}},
			{"apply", n,
				func(w *grb.Vector[int64], mask *grb.Vector[bool], accum grb.BinaryOp[int64, int64, int64], d *grb.Descriptor, dense bool) error {
					return grb.ApplyVector(w, mask, accum, neg, heldV(u, dense), d)
				},
				func(w *ref.Vec[int64], mask *ref.Vec[bool], accum grb.BinaryOp[int64, int64, int64], d ref.Desc) {
					ref.ApplyVec(w, mask, accum, neg, ref.FromVector(u), d)
				}},
			{"select", n,
				func(w *grb.Vector[int64], mask *grb.Vector[bool], accum grb.BinaryOp[int64, int64, int64], d *grb.Descriptor, dense bool) error {
					return grb.SelectVector(w, mask, accum, grb.ValueGT[int64](0), heldV(u, dense), d)
				},
				func(w *ref.Vec[int64], mask *ref.Vec[bool], accum grb.BinaryOp[int64, int64, int64], d ref.Desc) {
					ref.SelectVec(w, mask, accum, grb.ValueGT[int64](0), ref.FromVector(u), d)
				}},
			{"reduce", m,
				func(w *grb.Vector[int64], mask *grb.Vector[bool], accum grb.BinaryOp[int64, int64, int64], d *grb.Descriptor, dense bool) error {
					return grb.ReduceMatrixToVector(w, mask, accum, grb.PlusMonoid[int64](), heldM(a, dense), d)
				},
				func(w *ref.Vec[int64], mask *ref.Vec[bool], accum grb.BinaryOp[int64, int64, int64], d ref.Desc) {
					ref.ReduceMatToVec(w, mask, accum, grb.PlusMonoid[int64](), ref.FromMatrix(a), d)
				}},
			{"extract", n,
				func(w *grb.Vector[int64], mask *grb.Vector[bool], accum grb.BinaryOp[int64, int64, int64], d *grb.Descriptor, dense bool) error {
					return grb.ExtractVector(w, mask, accum, heldV(big, dense), idx, d)
				},
				func(w *ref.Vec[int64], mask *ref.Vec[bool], accum grb.BinaryOp[int64, int64, int64], d ref.Desc) {
					ref.ExtractVec(w, mask, accum, ref.FromVector(big), idx, d)
				}},
			{"assign/all", n,
				func(w *grb.Vector[int64], mask *grb.Vector[bool], accum grb.BinaryOp[int64, int64, int64], d *grb.Descriptor, dense bool) error {
					return grb.AssignVector(w, mask, accum, heldV(u, dense), grb.All, d)
				},
				func(w *ref.Vec[int64], mask *ref.Vec[bool], accum grb.BinaryOp[int64, int64, int64], d ref.Desc) {
					ref.AssignVec(w, mask, accum, ref.FromVector(u), nil, d)
				}},
			{"assign/region", n,
				func(w *grb.Vector[int64], mask *grb.Vector[bool], accum grb.BinaryOp[int64, int64, int64], d *grb.Descriptor, dense bool) error {
					return grb.AssignVector(w, mask, accum, heldV(sub, dense), subIdx, d)
				},
				func(w *ref.Vec[int64], mask *ref.Vec[bool], accum grb.BinaryOp[int64, int64, int64], d ref.Desc) {
					ref.AssignVec(w, mask, accum, ref.FromVector(sub), subIdx, d)
				}},
			{"assign/region-full", n, // full u: the pending-tuple fast path when unmasked
				func(w *grb.Vector[int64], mask *grb.Vector[bool], accum grb.BinaryOp[int64, int64, int64], d *grb.Descriptor, dense bool) error {
					return grb.AssignVector(w, mask, accum, heldV(full, dense), subIdx, d)
				},
				func(w *ref.Vec[int64], mask *ref.Vec[bool], accum grb.BinaryOp[int64, int64, int64], d ref.Desc) {
					ref.AssignVec(w, mask, accum, ref.FromVector(full), subIdx, d)
				}},
			{"assign/scalar", n,
				func(w *grb.Vector[int64], mask *grb.Vector[bool], accum grb.BinaryOp[int64, int64, int64], d *grb.Descriptor, _ bool) error {
					return grb.AssignVectorScalar(w, mask, accum, scalar, grb.All, d)
				},
				func(w *ref.Vec[int64], mask *ref.Vec[bool], accum grb.BinaryOp[int64, int64, int64], d ref.Desc) {
					ref.AssignVec(w, mask, accum, allScalar, nil, d)
				}},
		}
		for _, op := range ops {
			wInit := randVector(rng, op.n, 0.4)
			mask := randBoolVector(rng, op.n, 0.5)
			for _, wc := range writeCases() {
				for _, accum := range []grb.BinaryOp[int64, int64, int64]{nil, plus} {
					want := ref.FromVector(wInit)
					var rm *ref.Vec[bool]
					if wc.useMask {
						rm = ref.FromVector(mask)
					}
					op.ref(want, rm, accum, refDesc(wc.desc))
					for _, sc := range storageCases() {
						if !wc.useMask && sc.mask {
							continue
						}
						t.Run(fmt.Sprintf("t%d/%s/%s/accum=%v/%s", trial, op.name, wc.name, accum != nil, sc.name), func(t *testing.T) {
							w := heldV(wInit, sc.c)
							var gm *grb.Vector[bool]
							if wc.useMask {
								gm = heldV(mask, sc.mask)
							}
							d := wc.desc
							if err := op.grb(w, gm, accum, &d, sc.in); err != nil {
								t.Fatal(err)
							}
							eqVec(t, w, want)
							mustSerializeLikeTwinVec(t, w)
						})
					}
				}
			}
		}
	}
}

// TestEWiseUnionStorageForms pins eWiseUnion (which has no mimic) to the
// same bits whatever forms its objects are held in.
func TestEWiseUnionStorageForms(t *testing.T) {
	rng := rand.New(rand.NewSource(1603))
	for trial := 0; trial < 4; trial++ {
		m, n := 1+rng.Intn(6), 2+rng.Intn(12)
		a, b := randMatrixF64(rng, m, n, 0.5), randMatrixF64(rng, m, n, 0.5)
		u, v := randVectorF64(rng, n, 0.5), randVectorF64(rng, n, 0.5)
		cInit, wInit := randMatrixF64(rng, m, n, 0.4), randVectorF64(rng, n, 0.4)
		mm, mv := randBoolMatrix(rng, m, n, 0.4), randBoolVector(rng, n, 0.4)
		div := grb.Div[float64]()
		for _, wc := range writeCases() {
			for _, accum := range []grb.BinaryOp[float64, float64, float64]{nil, grb.Plus[float64]()} {
				var baseM *grb.Matrix[float64]
				var baseV *grb.Vector[float64]
				for _, sc := range storageCases() {
					if !wc.useMask && sc.mask {
						continue
					}
					label := fmt.Sprintf("t%d/%s/accum=%v/%s", trial, wc.name, accum != nil, sc.name)
					d := wc.desc
					c, w := heldM(cInit, sc.c), heldV(wInit, sc.c)
					var gmm *grb.Matrix[bool]
					var gmv *grb.Vector[bool]
					if wc.useMask {
						gmm, gmv = heldM(mm, sc.mask), heldV(mv, sc.mask)
					}
					if err := grb.EWiseUnionMatrix(c, gmm, accum, div, heldM(a, sc.in), -1.5, heldM(b, sc.in), 2.5, &d); err != nil {
						t.Fatal(err)
					}
					if err := grb.EWiseUnionVector(w, gmv, accum, div, heldV(u, sc.in), -1.5, heldV(v, sc.in), 2.5, &d); err != nil {
						t.Fatal(err)
					}
					if baseM == nil {
						baseM, baseV = c, w
						continue
					}
					mustIdenticalMat(t, label, c, baseM)
					mustIdenticalVec(t, label, w, baseV)
				}
			}
		}
	}
}

// mustSerializeLikeTwin fails unless c serializes to the bytes of a matrix
// built from the same tuples that has only ever been compressed.
func mustSerializeLikeTwin[T any](t *testing.T, c *grb.Matrix[T]) {
	t.Helper()
	var got, want bytes.Buffer
	if err := grb.SerializeMatrix(&got, c); err != nil {
		t.Fatal(err)
	}
	is, js, xs := c.ExtractTuples()
	twin := grb.MustMatrix[T](c.Nrows(), c.Ncols())
	if err := twin.Build(is, js, xs, nil); err != nil {
		t.Fatal(err)
	}
	if err := grb.SerializeMatrix(&want, twin); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("serialized bytes differ from the compressed twin's (%d vs %d bytes)", got.Len(), want.Len())
	}
}

func mustSerializeLikeTwinVec[T any](t *testing.T, w *grb.Vector[T]) {
	t.Helper()
	var got, want bytes.Buffer
	if err := grb.SerializeVector(&got, w); err != nil {
		t.Fatal(err)
	}
	is, xs := w.ExtractTuples()
	twin := grb.MustVector[T](w.Size())
	if err := twin.Build(is, xs, nil); err != nil {
		t.Fatal(err)
	}
	if err := grb.SerializeVector(&want, twin); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("serialized bytes differ from the compressed twin's (%d vs %d bytes)", got.Len(), want.Len())
	}
}

// TestDenseHeldLifecycle walks a dense-held matrix and vector through the
// whole-object methods that replace or reshape storage: none may leave a
// dense form behind that disagrees with the compressed one.
func TestDenseHeldLifecycle(t *testing.T) {
	rng := rand.New(rand.NewSource(1605))
	a := randMatrix(rng, 9, 7, 0.5)
	v := randVector(rng, 40, 0.5)

	t.Run("resize", func(t *testing.T) {
		m, w := heldM(a, true), heldV(v, true)
		want := ref.FromMatrix(a)
		must(t, m.Resize(4, 3))
		small := ref.NewMat[int64](4, 3)
		for i := 0; i < 4; i++ {
			for j := 0; j < 3; j++ {
				small.Val[i][j], small.Set[i][j] = want.Val[i][j], want.Set[i][j]
			}
		}
		eqMat(t, m, small)
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
		short := ref.NewVec[int64](10)
		copy(short.Val, wv.Val[:10])
		copy(short.Set, wv.Set[:10])
		eqVec(t, w, short)
	})
	t.Run("clear-build", func(t *testing.T) {
		m, w := heldM(a, true), heldV(v, true)
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
	t.Run("set-format", func(t *testing.T) {
		for _, f := range allFormats {
			m := heldM(a, true)
			_ = m.SetElement(0, 0, 11) // pending against the dense form
			m.SetFormat(f.f)
			want := ref.FromMatrix(a)
			want.Val[0][0], want.Set[0][0] = 11, true
			eqMat(t, m, want)
			mustSerializeLikeTwin(t, inFormat(m, grb.FormatAuto))
		}
	})
	t.Run("export-import", func(t *testing.T) {
		w := heldV(v, true)
		n, idx, x := w.ExportSparse()
		if w.Nvals() != 0 {
			t.Fatal("ExportSparse left entries behind")
		}
		back, err := grb.ImportSparse(n, idx, x, false)
		must(t, err)
		eqVec(t, back, ref.FromVector(v))
		m := heldM(a, true)
		nr, nc, p, i, xs := m.ExportCSR()
		if m.Nvals() != 0 {
			t.Fatal("ExportCSR left entries behind")
		}
		mb, err := grb.ImportCSR(nr, nc, p, i, xs, false)
		must(t, err)
		eqMat(t, mb, ref.FromMatrix(a))
	})
	t.Run("assign-does-not-share", func(t *testing.T) {
		// A write may adopt its z; an assigned-from operand must keep its
		// own arrays (a zombie flip in the output would otherwise reach it).
		for _, accum := range []grb.BinaryOp[int64, int64, int64]{nil, grb.Plus[int64]()} {
			u, w := v.Dup(), grb.MustVector[int64](v.Size())
			must(t, grb.AssignVector(w, (*grb.Vector[bool])(nil), accum, u, grb.All, nil))
			is, _ := w.ExtractTuples()
			_ = w.RemoveElement(is[0])
			eqVec(t, u, ref.FromVector(v))
			src, dst := a.Dup(), grb.MustMatrix[int64](a.Nrows(), a.Ncols())
			must(t, grb.AssignMatrix(dst, (*grb.Matrix[bool])(nil), accum, src, grb.All, grb.All, nil))
			ri, rj, _ := dst.ExtractTuples()
			_ = dst.RemoveElement(ri[0], rj[0])
			eqMat(t, src, ref.FromMatrix(a))
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
