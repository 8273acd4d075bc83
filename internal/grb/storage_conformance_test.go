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
	"math"
	"math/rand"
	"testing"

	"lagraph/internal/grb"
	"lagraph/internal/grb/ref"
	"lagraph/internal/obs"
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

// fullMat returns the mimic of an nr×nc matrix holding s everywhere.
func fullMat(nr, nc int, s int64) *ref.Mat[int64] {
	a := ref.NewMat[int64](nr, nc)
	for i := range a.Val {
		for j := range a.Val[i] {
			a.Val[i][j], a.Set[i][j] = s, true
		}
	}
	return a
}

// maskRow returns row i of a matrix mask as the vector mask a row assign
// takes, held in the form the matrix is.
func maskRow(mask *grb.Matrix[bool], i int) (*grb.Vector[bool], error) {
	if mask == nil {
		return nil, nil
	}
	dense, _ := mask.Forms()
	v := grb.MustVector[bool](mask.Ncols())
	if err := grb.ExtractMatrixRow(v, (*grb.Vector[bool])(nil), nil, mask, i, grb.All, nil); err != nil {
		return nil, err
	}
	if dense {
		grb.HoldDense(v)
	}
	return v, nil
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

// withExtremes overwrites about a third of v's entries with int64's least
// and greatest values: min's terminal and its identity.
func withExtremes(rng *rand.Rand, v *grb.Vector[int64]) *grb.Vector[int64] {
	w := v.Dup()
	is, _ := w.ExtractTuples()
	for _, i := range is {
		if x := rng.Intn(6); x < 2 {
			_ = w.SetElement(i, []int64{math.MinInt64, math.MaxInt64}[x])
		}
	}
	w.Wait()
	return w
}

func withExtremesM(rng *rand.Rand, a *grb.Matrix[int64]) *grb.Matrix[int64] {
	b := a.Dup()
	is, js, _ := b.ExtractTuples()
	for k := range is {
		if x := rng.Intn(6); x < 2 {
			_ = b.SetElement(is[k], js[k], []int64{math.MinInt64, math.MaxInt64}[x])
		}
	}
	b.Wait()
	return b
}

// twinned runs one product into w with tw.tagged at one worker and at eight
// and with tw.literal, each from w's initial state: all three must leave the
// same bits, and the twins must have done the same work to get them. w ends
// as the eight-worker tagged run left it, for the table to hold against the
// mimic; that run's op record is returned.
func twinned[T comparable](tw taggedTwin[T], w *grb.Vector[T], run func(w *grb.Vector[T], s grb.Semiring[T, T, T]) error) (obs.OpRecord, error) {
	traced := func(w *grb.Vector[T], s grb.Semiring[T, T, T], p int) (obs.OpRecord, error) {
		defer grb.SetParallelism(grb.SetParallelism(p))
		trace := obs.NewTrace(4)
		defer obs.Set(obs.Set(trace))
		if err := run(w, s); err != nil {
			return obs.OpRecord{}, err
		}
		ops := trace.Ops()
		return ops[len(ops)-1], nil
	}
	serial, literal := w.Dup(), w.Dup()
	if _, err := traced(serial, tw.tagged, 1); err != nil {
		return obs.OpRecord{}, err
	}
	rec, err := traced(w, tw.tagged, 8)
	if err != nil {
		return rec, err
	}
	lrec, err := traced(literal, tw.literal, 8)
	if err != nil {
		return rec, err
	}
	wi, wx := w.ExtractTuples()
	for _, other := range []*grb.Vector[T]{serial, literal} {
		oi, ox := other.ExtractTuples()
		if len(oi) != len(wi) {
			return rec, fmt.Errorf("%s: %d entries tagged at eight workers, %d at one or by the literal twin", tw.name, len(wi), len(oi))
		}
		for k := range wi {
			if oi[k] != wi[k] || !bitIdentical(ox[k], wx[k]) {
				return rec, fmt.Errorf("%s: entry %d is %v tagged at eight workers, %v at one or by the literal twin", tw.name, wi[k], wx[k], ox[k])
			}
		}
	}
	return rec, tw.sameWork(rec, lrec)
}

// twinVecOps is the vector table's rows for one tagged semiring: VxM and MxV
// (whose argument swap must map the tag, not lose it), pushed and pulled,
// MxV also against a transposed operand. um and u are vectors over a's rows
// and columns.
func twinVecOps(tw taggedTwin[int64], um, u *grb.Vector[int64], a *grb.Matrix[int64]) []vecOp {
	type (
		vec   = *grb.Vector[int64]
		mask  = *grb.Vector[bool]
		accum = grb.BinaryOp[int64, int64, int64]
	)
	m, n := a.Nrows(), a.Ncols()
	row := func(name string, size int, dir grb.Direction, tranA bool,
		product func(w vec, mask mask, accum accum, s grb.Semiring[int64, int64, int64], dense bool, d *grb.Descriptor) error,
		mimic func(w *ref.Vec[int64], mask *ref.Vec[bool], accum accum, d ref.Desc)) vecOp {
		return vecOp{name + "/" + tw.name, size,
			func(w vec, mask mask, accum accum, d *grb.Descriptor, dense bool) error {
				dd := *d
				dd.Dir, dd.TranA = dir, tranA
				_, err := twinned(tw, w, func(w vec, s grb.Semiring[int64, int64, int64]) error {
					return product(w, mask, accum, s, dense, &dd)
				})
				return err
			},
			func(w *ref.Vec[int64], mask *ref.Vec[bool], accum accum, d ref.Desc) {
				d.TranA = tranA
				mimic(w, mask, accum, d)
			}}
	}
	vxm := func(w vec, mask mask, accum accum, s grb.Semiring[int64, int64, int64], dense bool, d *grb.Descriptor) error {
		return grb.VxM(w, mask, accum, s, heldV(um, dense), a, d)
	}
	vxmMimic := func(w *ref.Vec[int64], mask *ref.Vec[bool], accum accum, d ref.Desc) {
		ref.VxM(w, mask, accum, tw.literal, ref.FromVector(um), ref.FromMatrix(a), d)
	}
	return []vecOp{
		row("vxm/push", n, grb.DirPush, false, vxm, vxmMimic),
		row("vxm/pull", n, grb.DirPull, false, vxm, vxmMimic),
		row("mxv/pull", m, grb.DirPull, false,
			func(w vec, mask mask, accum accum, s grb.Semiring[int64, int64, int64], dense bool, d *grb.Descriptor) error {
				return grb.MxV(w, mask, accum, s, a, heldV(u, dense), d)
			},
			func(w *ref.Vec[int64], mask *ref.Vec[bool], accum accum, d ref.Desc) {
				ref.MxV(w, mask, accum, tw.literal, ref.FromMatrix(a), ref.FromVector(u), d)
			}),
		row("mxv/push-tranA", n, grb.DirPush, true,
			func(w vec, mask mask, accum accum, s grb.Semiring[int64, int64, int64], dense bool, d *grb.Descriptor) error {
				return grb.MxV(w, mask, accum, s, a, heldV(um, dense), d)
			},
			func(w *ref.Vec[int64], mask *ref.Vec[bool], accum accum, d ref.Desc) {
				ref.MxV(w, mask, accum, tw.literal, ref.FromMatrix(a), ref.FromVector(um), d)
			}),
	}
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
		// Operands of the scalar and row assigns, from a generator of their
		// own so the rows above keep the inputs they always had.
		rng2 := rand.New(rand.NewSource(2300 + int64(trial)))
		const scalar = int64(7)
		rowI := rng2.Intn(m)
		rowU, rowSub := randVector(rng2, n, 0.5), randVector(rng2, sc, 0.6)
		scalarAssign := func(name string, rows, cols []int) matOp {
			rr, rc := m, n
			if rows != nil {
				rr = len(rows)
			}
			if cols != nil {
				rc = len(cols)
			}
			return matOp{name, m, n,
				func(c *grb.Matrix[int64], mask *grb.Matrix[bool], accum grb.BinaryOp[int64, int64, int64], d *grb.Descriptor, _ bool) error {
					return grb.AssignMatrixScalar(c, mask, accum, scalar, rows, cols, d)
				},
				func(c *ref.Mat[int64], mask *ref.Mat[bool], accum grb.BinaryOp[int64, int64, int64], d ref.Desc) {
					ref.Assign(c, mask, accum, fullMat(rr, rc, scalar), rows, cols, d)
				}}
		}
		rowAssign := func(name string, u *grb.Vector[int64], cols []int) matOp {
			return matOp{name, m, n,
				func(c *grb.Matrix[int64], mask *grb.Matrix[bool], accum grb.BinaryOp[int64, int64, int64], d *grb.Descriptor, dense bool) error {
					rm, err := maskRow(mask, rowI)
					if err != nil {
						return err
					}
					return grb.AssignMatrixRow(c, rm, accum, heldV(u, dense), rowI, cols, d)
				},
				func(c *ref.Mat[int64], mask *ref.Mat[bool], accum grb.BinaryOp[int64, int64, int64], d ref.Desc) {
					ur := ref.FromVector(u)
					a := ref.NewMat[int64](1, ur.N)
					a.Val[0], a.Set[0] = ur.Val, ur.Set
					ref.Assign(c, mask, accum, a, []int{rowI}, cols, d)
				}}
		}
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
			scalarAssign("assign/scalar-all", grb.All, grb.All),
			scalarAssign("assign/scalar-region", subRows, subCols),
			scalarAssign("assign/scalar-region-rows", subRows, grb.All),
			scalarAssign("assign/scalar-region-cols", grb.All, subCols),
			rowAssign("assign/row", rowU, grb.All),
			rowAssign("assign/row-region", rowSub, subCols),
		}
		// Every tagged constructor's mxm, whichever kernel MxMAuto picks; the
		// twin comparison is mxm_direction_test.go's.
		xleft, xright := withExtremesM(rng2, left), withExtremesM(rng2, right)
		for _, tw := range taggedTwins[int64]() {
			ops = append(ops, matOp{"mxm/" + tw.name, m, n,
				func(c *grb.Matrix[int64], mask *grb.Matrix[bool], accum grb.BinaryOp[int64, int64, int64], d *grb.Descriptor, dense bool) error {
					return grb.MxM(c, mask, accum, tw.tagged, heldM(xleft, dense), heldM(xright, dense), d)
				},
				func(c *ref.Mat[int64], mask *ref.Mat[bool], accum grb.BinaryOp[int64, int64, int64], d ref.Desc) {
					ref.MxM(c, mask, accum, tw.literal, ref.FromMatrix(xleft), ref.FromMatrix(xright), d)
				}})
		}
		// Each forced kernel into an empty C, held in the form C is: the write
		// rule's adopt arm, which takes the kernel's result as it is, so the
		// kernel alone must have applied the mask.
		for _, method := range []struct {
			name string
			m    grb.MxMMethod
		}{{"gustavson", grb.MxMGustavson}, {"dot", grb.MxMDot}, {"heap", grb.MxMHeap}} {
			ops = append(ops, matOp{"mxm/empty-C/" + method.name, m, n,
				func(c *grb.Matrix[int64], mask *grb.Matrix[bool], accum grb.BinaryOp[int64, int64, int64], d *grb.Descriptor, dense bool) error {
					held, _ := c.Forms()
					c.Clear()
					if held {
						grb.HoldDenseMatrix(c)
					}
					dd := *d
					dd.Method = method.m
					return grb.MxM(c, mask, accum, grb.PlusTimes[int64](), heldM(left, dense), heldM(right, dense), &dd)
				},
				func(c *ref.Mat[int64], mask *ref.Mat[bool], accum grb.BinaryOp[int64, int64, int64], d ref.Desc) {
					for i := range c.Set {
						clear(c.Set[i])
					}
					ref.MxM(c, mask, accum, grb.PlusTimes[int64](), ref.FromMatrix(left), ref.FromMatrix(right), d)
				}})
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
			{"assign/region-full", n, // full u: every region position is written
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
			{"assign/scalar-region", n,
				func(w *grb.Vector[int64], mask *grb.Vector[bool], accum grb.BinaryOp[int64, int64, int64], d *grb.Descriptor, _ bool) error {
					return grb.AssignVectorScalar(w, mask, accum, scalar, subIdx, d)
				},
				func(w *ref.Vec[int64], mask *ref.Vec[bool], accum grb.BinaryOp[int64, int64, int64], d ref.Desc) {
					region := ref.NewVec[int64](sn)
					for i := range region.Val {
						region.Val[i], region.Set[i] = scalar, true
					}
					ref.AssignVec(w, mask, accum, region, subIdx, d)
				}},
		}
		// Every tagged constructor beside its literal twin, over operands that
		// reach int64's extremes, from a generator of their own so the rows
		// above keep the inputs they always had.
		rng2 := rand.New(rand.NewSource(2400 + int64(trial)))
		xum, xu, xa := withExtremes(rng2, um), withExtremes(rng2, u), withExtremesM(rng2, a)
		for _, tw := range taggedTwins[int64]() {
			ops = append(ops, twinVecOps(tw, xum, xu, xa)...)
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

// TestTaggedTwinsChunkedVector is the vector tables' twin rows at a size
// whose work is cut into chunks at eight workers, over float64: plus.* on
// sums that depend on their order, min.* on NaN, ±Inf and −0. The literal
// twin — the generic loops the tables above hold to the mimic — is the
// reference. u is three-quarters full; full and dense-held (PageRank's and
// FastSV's operand, on which every lane probe of a pull passes); and a
// sixteenth full and sparse-held (a pull reads it through scratch lanes). For
// the min tags, row and column 0 of A meet u so that min's terminal −Inf
// arrives mid-row whichever operand the multiplier reads. Each table runs
// twice: on rows of 24 random entries, and on a 128×128 lattice's rows of
// at most four — PageRank's and FastSV's shape on the grid, where a row's
// first match and its fold are most of a pull's work. Every case runs
// unmasked, under a dense-held complemented mask (the lane pull) and under
// a sparse-held one (the pull over the admitted rows).
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
	full = heldV(full, true)
	sparse.Wait()
	if dense, _ := sparse.Forms(); dense {
		t.Fatal("the sparse u is dense-held")
	}
	mask, sparseMask := randBoolVector(rng, n, 0.5), randBoolVector(rng, n, 1.0/32)
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
					gm, c.d.Comp = heldV(mask, true), true
				case "sparse":
					gm = sparseMask
				}
				rec, err := twinned(tw, grb.MustVector[float64](n), func(w *grb.Vector[float64], s grb.Semiring[float64, float64, float64]) error {
					if c.mxv {
						return grb.MxV(w, gm, nil, s, a, u, &c.d)
					}
					return grb.VxM(w, gm, nil, s, u, a, &c.d)
				})
				if err != nil {
					t.Fatalf("%s %s lattice=%v mask=%s u=%d entries: %v", tw.name, c.name, lattice, masked, u.Nvals(), err)
				}
				// A push from the sparse u or on the lattice, and a pull
				// over the sparse mask's rows, are too little work to chunk.
				chunked := c.d.Dir == grb.DirPull || u != sparse && !lattice
				if rec.Chunks < 2 && chunked && masked != "sparse" {
					t.Fatalf("%s %s lattice=%v mask=%s u=%d entries: %d chunks at eight workers; the input does not reach the chunked kernel", tw.name, c.name, lattice, masked, u.Nvals(), rec.Chunks)
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

// routeOp is one vector operation the dense result route covers, in both
// implementations. u and v are its operands (v unused by unary ops); the
// mimic side gets copies taken before the call, so the grb side may alias.
type routeOp struct {
	name string
	// square says the output has the operands' dimension, so w may alias
	// an operand; binary that v is read.
	square, binary bool
	outN           func(n int) int
	grb            func(w *grb.Vector[int64], mask *grb.Vector[bool], accum grb.BinaryOp[int64, int64, int64], d *grb.Descriptor, u, v *grb.Vector[int64]) error
	ref            func(w *ref.Vec[int64], mask *ref.Vec[bool], accum grb.BinaryOp[int64, int64, int64], d ref.Desc, u, v *ref.Vec[int64])
}

// viaWriteRule applies the mimic's write rule to a precomputed z (a
// whole-vector assign is exactly that), for ops the mimic does not have.
func viaWriteRule(w *ref.Vec[int64], mask *ref.Vec[bool], accum grb.BinaryOp[int64, int64, int64], d ref.Desc, z *ref.Vec[int64]) {
	ref.AssignVec(w, mask, accum, z, nil, d)
}

func routeOps(n int, rng *rand.Rand) []routeOp {
	plus, times := grb.Plus[int64](), grb.Times[int64]()
	minus := grb.Minus[int64]()
	neg := func(x int64) int64 { return -x }
	plusIdx := func(x int64, i, _ int) int64 { return x + int64(i) }
	same := func(n int) int { return n }
	// An index list with duplicates and omissions, longer than n.
	gather := make([]int, n+5)
	for t := range gather {
		gather[t] = rng.Intn(n)
	}
	a := randMatrix(rng, n, n, 0.2)
	const scalar = int64(7)
	return []routeOp{
		{"eWiseAdd", true, true, same,
			func(w *grb.Vector[int64], mask *grb.Vector[bool], accum grb.BinaryOp[int64, int64, int64], d *grb.Descriptor, u, v *grb.Vector[int64]) error {
				return grb.EWiseAddVector(w, mask, accum, plus, u, v, d)
			},
			func(w *ref.Vec[int64], mask *ref.Vec[bool], accum grb.BinaryOp[int64, int64, int64], d ref.Desc, u, v *ref.Vec[int64]) {
				ref.EWiseAddVec(w, mask, accum, plus, u, v, d)
			}},
		{"eWiseMult", true, true, same,
			func(w *grb.Vector[int64], mask *grb.Vector[bool], accum grb.BinaryOp[int64, int64, int64], d *grb.Descriptor, u, v *grb.Vector[int64]) error {
				return grb.EWiseMultVector(w, mask, accum, times, u, v, d)
			},
			func(w *ref.Vec[int64], mask *ref.Vec[bool], accum grb.BinaryOp[int64, int64, int64], d ref.Desc, u, v *ref.Vec[int64]) {
				ref.EWiseMultVec(w, mask, accum, times, u, v, d)
			}},
		{"eWiseUnion", true, true, same, // a non-commutative op with distinct fills
			func(w *grb.Vector[int64], mask *grb.Vector[bool], accum grb.BinaryOp[int64, int64, int64], d *grb.Descriptor, u, v *grb.Vector[int64]) error {
				return grb.EWiseUnionVector(w, mask, accum, minus, u, 100, v, 1000, d)
			},
			func(w *ref.Vec[int64], mask *ref.Vec[bool], accum grb.BinaryOp[int64, int64, int64], d ref.Desc, u, v *ref.Vec[int64]) {
				z := ref.NewVec[int64](u.N)
				for i := 0; i < u.N; i++ {
					if !u.Set[i] && !v.Set[i] {
						continue
					}
					x, y := int64(100), int64(1000)
					if u.Set[i] {
						x = u.Val[i]
					}
					if v.Set[i] {
						y = v.Val[i]
					}
					z.Val[i], z.Set[i] = x-y, true
				}
				viaWriteRule(w, mask, accum, d, z)
			}},
		{"apply", true, false, same,
			func(w *grb.Vector[int64], mask *grb.Vector[bool], accum grb.BinaryOp[int64, int64, int64], d *grb.Descriptor, u, _ *grb.Vector[int64]) error {
				return grb.ApplyVector(w, mask, accum, neg, u, d)
			},
			func(w *ref.Vec[int64], mask *ref.Vec[bool], accum grb.BinaryOp[int64, int64, int64], d ref.Desc, u, _ *ref.Vec[int64]) {
				ref.ApplyVec(w, mask, accum, neg, u, d)
			}},
		{"applyIndex", true, false, same,
			func(w *grb.Vector[int64], mask *grb.Vector[bool], accum grb.BinaryOp[int64, int64, int64], d *grb.Descriptor, u, _ *grb.Vector[int64]) error {
				return grb.ApplyIndexVector(w, mask, accum, plusIdx, u, d)
			},
			func(w *ref.Vec[int64], mask *ref.Vec[bool], accum grb.BinaryOp[int64, int64, int64], d ref.Desc, u, _ *ref.Vec[int64]) {
				z := ref.NewVec[int64](u.N)
				for i := 0; i < u.N; i++ {
					if u.Set[i] {
						z.Val[i], z.Set[i] = u.Val[i]+int64(i), true
					}
				}
				viaWriteRule(w, mask, accum, d, z)
			}},
		{"select", true, false, same, // keeps about half: a dense operand may give a sparse result
			func(w *grb.Vector[int64], mask *grb.Vector[bool], accum grb.BinaryOp[int64, int64, int64], d *grb.Descriptor, u, _ *grb.Vector[int64]) error {
				return grb.SelectVector(w, mask, accum, grb.ValueGT[int64](0), u, d)
			},
			func(w *ref.Vec[int64], mask *ref.Vec[bool], accum grb.BinaryOp[int64, int64, int64], d ref.Desc, u, _ *ref.Vec[int64]) {
				ref.SelectVec(w, mask, accum, grb.ValueGT[int64](0), u, d)
			}},
		{"extract/all", true, false, same,
			func(w *grb.Vector[int64], mask *grb.Vector[bool], accum grb.BinaryOp[int64, int64, int64], d *grb.Descriptor, u, _ *grb.Vector[int64]) error {
				return grb.ExtractVector(w, mask, accum, u, grb.All, d)
			},
			func(w *ref.Vec[int64], mask *ref.Vec[bool], accum grb.BinaryOp[int64, int64, int64], d ref.Desc, u, _ *ref.Vec[int64]) {
				ref.ExtractVec(w, mask, accum, u, nil, d)
			}},
		{"extract/duplicates", false, false, func(int) int { return len(gather) },
			func(w *grb.Vector[int64], mask *grb.Vector[bool], accum grb.BinaryOp[int64, int64, int64], d *grb.Descriptor, u, _ *grb.Vector[int64]) error {
				return grb.ExtractVector(w, mask, accum, u, gather, d)
			},
			func(w *ref.Vec[int64], mask *ref.Vec[bool], accum grb.BinaryOp[int64, int64, int64], d ref.Desc, u, _ *ref.Vec[int64]) {
				ref.ExtractVec(w, mask, accum, u, gather, d)
			}},
		{"assign/all", true, false, same,
			func(w *grb.Vector[int64], mask *grb.Vector[bool], accum grb.BinaryOp[int64, int64, int64], d *grb.Descriptor, u, _ *grb.Vector[int64]) error {
				return grb.AssignVector(w, mask, accum, u, grb.All, d)
			},
			func(w *ref.Vec[int64], mask *ref.Vec[bool], accum grb.BinaryOp[int64, int64, int64], d ref.Desc, u, _ *ref.Vec[int64]) {
				ref.AssignVec(w, mask, accum, u, nil, d)
			}},
		{"assign/scalar", true, false, same,
			func(w *grb.Vector[int64], mask *grb.Vector[bool], accum grb.BinaryOp[int64, int64, int64], d *grb.Descriptor, _, _ *grb.Vector[int64]) error {
				return grb.AssignVectorScalar(w, mask, accum, scalar, grb.All, d)
			},
			func(w *ref.Vec[int64], mask *ref.Vec[bool], accum grb.BinaryOp[int64, int64, int64], d ref.Desc, u, _ *ref.Vec[int64]) {
				z := ref.NewVec[int64](u.N)
				for i := range z.Val {
					z.Val[i], z.Set[i] = scalar, true
				}
				viaWriteRule(w, mask, accum, d, z)
			}},
		{"mxv/pull", true, false, same, // the pull kernel's staging lanes are the result
			func(w *grb.Vector[int64], mask *grb.Vector[bool], accum grb.BinaryOp[int64, int64, int64], d *grb.Descriptor, u, _ *grb.Vector[int64]) error {
				dd := *d
				dd.Dir = grb.DirPull
				return grb.MxV(w, mask, accum, grb.PlusTimes[int64](), a, u, &dd)
			},
			func(w *ref.Vec[int64], mask *ref.Vec[bool], accum grb.BinaryOp[int64, int64, int64], d ref.Desc, u, _ *ref.Vec[int64]) {
				ref.MxV(w, mask, accum, grb.PlusTimes[int64](), ref.FromMatrix(a), u, d)
			}},
	}
}

// fullVector has an entry at every index.
func fullVector(rng *rand.Rand, n int) *grb.Vector[int64] {
	v := grb.MustVector[int64](n)
	for i := 0; i < n; i++ {
		_ = v.SetElement(i, int64(rng.Intn(9)-4))
	}
	v.Wait()
	return v
}

// mustHoldLikePromotionRule fails when a vector no test hook forced into
// the dense form holds it below the promotion bar: a sparse result must
// come back sparse whatever route computed it.
func mustHoldLikePromotionRule(t *testing.T, label string, w *grb.Vector[int64]) {
	t.Helper()
	if dense, _ := w.Forms(); dense && w.Nvals()*8 < w.Size() {
		t.Fatalf("%s: %d of %d entries held densely, below the 12.5 %% bar", label, w.Nvals(), w.Size())
	}
}

// TestConformanceDenseResultRoute drives every operation of the dense
// result route across the boundary that selects it: operands, output and
// mask each sparse-held or dense-held, and each below the promotion bar
// (thin), above it (half) or full, so that the lane kernels, the kernels
// they stand in for and all three write arms run under every mask, with
// and without an accumulator, against the mimic.
func TestConformanceDenseResultRoute(t *testing.T) {
	rng := rand.New(rand.NewSource(1701))
	plus := grb.Plus[int64]()
	fills := []struct {
		name string
		mk   func(n int) *grb.Vector[int64]
	}{
		{"thin", func(n int) *grb.Vector[int64] { return randVector(rng, n, 0.06) }},
		{"half", func(n int) *grb.Vector[int64] { return randVector(rng, n, 0.7) }},
		{"full", func(n int) *grb.Vector[int64] { return fullVector(rng, n) }},
	}
	operandFills := [][2]int{{0, 0}, {0, 2}, {1, 1}, {2, 1}, {2, 2}}
	forms := []bool{false, true}
	n := 48 + rng.Intn(40)
	for _, op := range routeOps(n, rng) {
		on := op.outN(n)
		for _, of := range operandFills {
			if !op.binary && of[0] != of[1] {
				continue
			}
			u0, v0 := fills[of[0]].mk(n), fills[of[1]].mk(n)
			for wf, wInit := range []*grb.Vector[int64]{grb.MustVector[int64](on), randVector(rng, on, 0.06), randVector(rng, on, 0.7)} {
				for mf, mask := range []*grb.Vector[bool]{randBoolVector(rng, on, 0.05), randBoolVector(rng, on, 0.6)} {
					for _, wc := range writeCases() {
						if !wc.useMask && mf > 0 {
							continue
						}
						for _, accum := range []grb.BinaryOp[int64, int64, int64]{nil, plus} {
							want := ref.FromVector(wInit)
							var rm *ref.Vec[bool]
							if wc.useMask {
								rm = ref.FromVector(mask)
							}
							op.ref(want, rm, accum, refDesc(wc.desc), ref.FromVector(u0), ref.FromVector(v0))
							for _, wd := range forms {
								for _, md := range forms {
									if !wc.useMask && md {
										continue
									}
									for _, ud := range forms {
										for _, vd := range forms {
											if vd && !op.binary {
												continue
											}
											label := fmt.Sprintf("%s/u=%s,v=%s,w=%d,m=%d/%s/accum=%v/w%v m%v u%v v%v", op.name,
												fills[of[0]].name, fills[of[1]].name, wf, mf, wc.name, accum != nil, wd, md, ud, vd)
											w := heldV(wInit, wd)
											var gm *grb.Vector[bool]
											if wc.useMask {
												gm = heldV(mask, md)
											}
											d := wc.desc
											if err := op.grb(w, gm, accum, &d, heldV(u0, ud), heldV(v0, vd)); err != nil {
												t.Fatalf("%s: %v", label, err)
											}
											if !vecMatches(w, want) {
												t.Fatalf("%s: result differs from the mimic", label)
											}
											if !wd {
												mustHoldLikePromotionRule(t, label, w)
											}
											mustSerializeLikeTwinVec(t, w)
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// vecMatches is eqVec as a predicate, so a product of cases can name the
// failing one.
func vecMatches(got *grb.Vector[int64], want *ref.Vec[int64]) bool {
	is, xs := got.ExtractTuples()
	n := 0
	for _, set := range want.Set {
		if set {
			n++
		}
	}
	if got.Size() != want.N || len(is) != n {
		return false
	}
	for k, i := range is {
		if !want.Set[i] || want.Val[i] != xs[k] {
			return false
		}
	}
	return true
}

// TestDenseResultRouteAliasing: the output is also an operand (FastSV's
// f = min(f, g)) or both. The lanes an output gives up when it adopts a
// result go back to the pool, so every read of them must have happened
// first.
func TestDenseResultRouteAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(1702))
	plus := grb.Plus[int64]()
	for trial := 0; trial < 3; trial++ {
		n := 40 + rng.Intn(40)
		mask := randBoolVector(rng, n, 0.5)
		for _, op := range routeOps(n, rng) {
			if !op.square {
				continue
			}
			for _, fill := range []float64{0.06, 0.7} {
				w0, o0 := randVector(rng, n, fill), randVector(rng, n, 0.7)
				for _, wc := range writeCases() {
					for _, accum := range []grb.BinaryOp[int64, int64, int64]{nil, plus} {
						for _, dense := range []bool{false, true} {
							for _, alias := range []string{"w=u", "w=v", "w=u=v"} {
								label := fmt.Sprintf("t%d/%s/fill=%.2f/%s/accum=%v/dense=%v/%s", trial, op.name, fill, wc.name, accum != nil, dense, alias)
								w := heldV(w0, dense)
								u, v := heldV(o0, dense), heldV(o0, !dense)
								ru, rv := ref.FromVector(o0), ref.FromVector(o0)
								if alias != "w=v" {
									u, ru = w, ref.FromVector(w0)
								}
								if alias != "w=u" {
									v, rv = w, ref.FromVector(w0)
								}
								var gm *grb.Vector[bool]
								var rm *ref.Vec[bool]
								if wc.useMask {
									gm, rm = heldV(mask, !dense), ref.FromVector(mask)
								}
								want := ref.FromVector(w0)
								op.ref(want, rm, accum, refDesc(wc.desc), ru, rv)
								d := wc.desc
								if err := op.grb(w, gm, accum, &d, u, v); err != nil {
									t.Fatalf("%s: %v", label, err)
								}
								if !vecMatches(w, want) {
									t.Fatalf("%s: result differs from the mimic", label)
								}
								mustSerializeLikeTwinVec(t, w)
							}
						}
					}
				}
			}
		}
	}
}

// TestDenseResultRouteOutputIsMask: w⟨w⟩ and w⟨¬w⟩ — the mask's lanes are
// the ones the output is about to give up or be written through.
func TestDenseResultRouteOutputIsMask(t *testing.T) {
	rng := rand.New(rand.NewSource(1703))
	plus := grb.Plus[int64]()
	neg := func(x int64) int64 { return -x }
	for trial := 0; trial < 6; trial++ {
		n := 40 + rng.Intn(40)
		a := randMatrix(rng, n, n, 0.2)
		w0 := randVector(rng, n, []float64{0.06, 0.7}[trial%2])
		u0, v0 := randVector(rng, n, 0.7), fullVector(rng, n)
		ops := []struct {
			name string
			grb  func(w *grb.Vector[int64], accum grb.BinaryOp[int64, int64, int64], d *grb.Descriptor, u, v *grb.Vector[int64]) error
			ref  func(w, mask *ref.Vec[int64], accum grb.BinaryOp[int64, int64, int64], d ref.Desc, u, v *ref.Vec[int64])
		}{
			{"eWiseAdd",
				func(w *grb.Vector[int64], accum grb.BinaryOp[int64, int64, int64], d *grb.Descriptor, u, v *grb.Vector[int64]) error {
					return grb.EWiseAddVector(w, w, accum, plus, u, v, d)
				},
				func(w, mask *ref.Vec[int64], accum grb.BinaryOp[int64, int64, int64], d ref.Desc, u, v *ref.Vec[int64]) {
					ref.EWiseAddVec(w, mask, accum, plus, u, v, d)
				}},
			{"apply",
				func(w *grb.Vector[int64], accum grb.BinaryOp[int64, int64, int64], d *grb.Descriptor, u, _ *grb.Vector[int64]) error {
					return grb.ApplyVector(w, w, accum, neg, u, d)
				},
				func(w, mask *ref.Vec[int64], accum grb.BinaryOp[int64, int64, int64], d ref.Desc, u, _ *ref.Vec[int64]) {
					ref.ApplyVec(w, mask, accum, neg, u, d)
				}},
			{"extract/all",
				func(w *grb.Vector[int64], accum grb.BinaryOp[int64, int64, int64], d *grb.Descriptor, _, v *grb.Vector[int64]) error {
					return grb.ExtractVector(w, w, accum, v, grb.All, d)
				},
				func(w, mask *ref.Vec[int64], accum grb.BinaryOp[int64, int64, int64], d ref.Desc, _, v *ref.Vec[int64]) {
					ref.ExtractVec(w, mask, accum, v, nil, d)
				}},
			{"assign/scalar",
				func(w *grb.Vector[int64], accum grb.BinaryOp[int64, int64, int64], d *grb.Descriptor, _, _ *grb.Vector[int64]) error {
					return grb.AssignVectorScalar(w, w, accum, 7, grb.All, d)
				},
				func(w, mask *ref.Vec[int64], accum grb.BinaryOp[int64, int64, int64], d ref.Desc, _, _ *ref.Vec[int64]) {
					z := ref.NewVec[int64](w.N)
					for i := range z.Val {
						z.Val[i], z.Set[i] = 7, true
					}
					ref.AssignVec(w, mask, accum, z, nil, d)
				}},
			{"mxv/pull",
				func(w *grb.Vector[int64], accum grb.BinaryOp[int64, int64, int64], d *grb.Descriptor, u, _ *grb.Vector[int64]) error {
					dd := *d
					dd.Dir = grb.DirPull
					return grb.MxV(w, w, accum, grb.PlusTimes[int64](), a, u, &dd)
				},
				func(w, mask *ref.Vec[int64], accum grb.BinaryOp[int64, int64, int64], d ref.Desc, u, _ *ref.Vec[int64]) {
					ref.MxV(w, mask, accum, grb.PlusTimes[int64](), ref.FromMatrix(a), u, d)
				}},
		}
		for _, op := range ops {
			for _, comp := range []bool{false, true} {
				for _, replace := range []bool{false, true} {
					for _, accum := range []grb.BinaryOp[int64, int64, int64]{nil, plus} {
						for _, dense := range []bool{false, true} {
							label := fmt.Sprintf("t%d/%s/comp=%v/replace=%v/accum=%v/dense=%v", trial, op.name, comp, replace, accum != nil, dense)
							d := grb.Descriptor{Comp: comp, Replace: replace}
							w := heldV(w0, dense)
							want := ref.FromVector(w0)
							op.ref(want, ref.FromVector(w0), accum, refDesc(d), ref.FromVector(u0), ref.FromVector(v0))
							if err := op.grb(w, accum, &d, heldV(u0, dense), heldV(v0, dense)); err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							if !vecMatches(w, want) {
								t.Fatalf("%s: result differs from the mimic", label)
							}
							mustSerializeLikeTwinVec(t, w)
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
		init := randVector(rng, n, 0.6)
		v, twin, want := heldV(init, true), init.Dup(), ref.FromVector(init)
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
				u := fullVector(rng, len(idx))
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
			eqVec(t, v, want)
			eqVec(t, twin, want)
		}
		mustSerializeLikeTwinVec(t, v)
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
	emptyRows := randBoolMatrix(rng, m, n, 0.3)
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
		{name: "structural", mask: randBoolMatrix(rng, m, n, 0.3), density: 0.3},
		{name: "value-with-stored-false", mask: randBoolMatrix(rng, m, n, 0.5), desc: grb.Descriptor{MaskValue: true}, density: 0.3},
		{name: "empty-mask-rows", mask: emptyRows, density: 0.3},
		{name: "complemented", mask: randBoolMatrix(rng, m, n, 0.3), desc: grb.Descriptor{Comp: true}, density: 0.3},
		{name: "mask-row-dwarfs-products", mask: full, density: 0.03},
		{name: "hypersparse-A", mask: randBoolMatrix(rng, m, n, 0.3), density: 0.1, hyperA: true},
		{name: "accum+replace", mask: randBoolMatrix(rng, m, n, 0.3), desc: grb.Descriptor{Replace: true}, density: 0.3, accumReplace: true},
		{name: "value+accum", mask: randBoolMatrix(rng, m, n, 0.5), desc: grb.Descriptor{MaskValue: true}, density: 0.3, accumReplace: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ai, bi := randMatrix(rng, m, k, tc.density), randMatrix(rng, k, n, 0.3)
			af, bf := randMatrixF64(rng, m, k, tc.density), randMatrixF64(rng, k, n, 0.3)
			if tc.hyperA {
				ai, af = heldHyper(ai), heldHyper(af)
			}
			c0i, c0f := randMatrix(rng, m, n, 0.2), randMatrixF64(rng, m, n, 0.2)
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
			eqMat(t, gotI, want)

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
			mustIdenticalMat(t, "mask-first vs sort-emit", gotF, viaWrite)
		})
	}
}
