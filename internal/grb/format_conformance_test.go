package grb_test

// Form conformance: the storage forms (standard CSR, hypersparse, dense)
// are interchangeable holdings of one logical matrix, so every kernel must
// produce bitwise-identical results regardless of which form its operands
// are in, at any parallelism level, traced or untraced. Float64 results
// are compared bit-for-bit — the kernels accumulate each output in
// ascending input-index order precisely so that dispatch (direction,
// method, form) can never change rounding.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"lagraph/internal/grb"
	"lagraph/internal/obs"
)

// allForms names the storage forms under test. The toy operands here hold
// the standard form by content; the other two are reached through the test
// hooks.
var allForms = []string{"standard", "hyper", "dense"}

// inForm returns a deep copy of a held in the named form.
func inForm[T any](a *grb.Matrix[T], form string) *grb.Matrix[T] {
	switch form {
	case "hyper":
		return heldHyper(a)
	case "dense":
		return heldDense(a)
	}
	return a.Dup()
}

// heldHyper returns a deep copy of a converted to the hypersparse layout.
func heldHyper[T any](a *grb.Matrix[T]) *grb.Matrix[T] {
	b := a.Dup()
	grb.HoldHyper(b)
	return b
}

// heldDense returns a deep copy of a in the dense-held state.
func heldDense[T any](a *grb.Matrix[T]) *grb.Matrix[T] {
	b := a.Dup()
	if !grb.HoldDenseMatrix(b) {
		panic("heldDense: matrix beyond the dense cell cap")
	}
	return b
}

// randMatrixF64 builds a random nr×nc float64 matrix whose values have
// full mantissas, so any change in accumulation order shows up in the
// result bits.
func randMatrixF64(rng *rand.Rand, nr, nc int, density float64) *grb.Matrix[float64] {
	a := grb.MustMatrix[float64](nr, nc)
	n := int(density * float64(nr) * float64(nc))
	is := make([]int, n)
	js := make([]int, n)
	xs := make([]float64, n)
	for k := 0; k < n; k++ {
		is[k] = rng.Intn(nr)
		js[k] = rng.Intn(nc)
		xs[k] = rng.NormFloat64()
	}
	if err := a.Build(is, js, xs, grb.Plus[float64]()); err != nil {
		panic(err)
	}
	return a
}

func randVectorF64(rng *rand.Rand, n int, density float64) *grb.Vector[float64] {
	v := grb.MustVector[float64](n)
	cnt := int(density * float64(n))
	is := make([]int, cnt)
	xs := make([]float64, cnt)
	for k := 0; k < cnt; k++ {
		is[k] = rng.Intn(n)
		xs[k] = rng.NormFloat64()
	}
	if err := v.Build(is, xs, grb.Plus[float64]()); err != nil {
		panic(err)
	}
	return v
}

// mustIdenticalMat fails unless got and want hold exactly the same
// tuples, bit-for-bit (NaNs compare by representation).
func mustIdenticalMat[T comparable](t *testing.T, label string, got, want *grb.Matrix[T]) {
	t.Helper()
	gi, gj, gx := got.ExtractTuples()
	wi, wj, wx := want.ExtractTuples()
	if len(gi) != len(wi) {
		t.Fatalf("%s: %d entries, want %d", label, len(gi), len(wi))
	}
	for k := range gi {
		if gi[k] != wi[k] || gj[k] != wj[k] || !bitIdentical(gx[k], wx[k]) {
			t.Fatalf("%s: entry %d is (%d,%d)=%v, want (%d,%d)=%v",
				label, k, gi[k], gj[k], gx[k], wi[k], wj[k], wx[k])
		}
	}
}

func mustIdenticalVec[T comparable](t *testing.T, label string, got, want *grb.Vector[T]) {
	t.Helper()
	gi, gx := got.ExtractTuples()
	wi, wx := want.ExtractTuples()
	if len(gi) != len(wi) {
		t.Fatalf("%s: %d entries, want %d", label, len(gi), len(wi))
	}
	for k := range gi {
		if gi[k] != wi[k] || !bitIdentical(gx[k], wx[k]) {
			t.Fatalf("%s: entry %d is [%d]=%v, want [%d]=%v",
				label, k, gi[k], gx[k], wi[k], wx[k])
		}
	}
}

// bitIdentical compares two values exactly; float64s by their bits.
func bitIdentical[T comparable](a, b T) bool {
	if fa, ok := any(a).(float64); ok {
		return math.Float64bits(fa) == math.Float64bits(any(b).(float64))
	}
	return a == b
}

// TestFormatConformanceMxM pins that every MxM method yields identical
// bits whatever form either operand is held in, and that the form never
// changes which kernel a forced method runs: a dense-held B under the dot
// method is read through its compressed columns.
func TestFormatConformanceMxM(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	methods := []struct {
		name string
		m    grb.MxMMethod
	}{
		{"gustavson", grb.MxMGustavson},
		{"dot", grb.MxMDot},
		{"heap", grb.MxMHeap},
	}
	for trial := 0; trial < 6; trial++ {
		m := 8 + rng.Intn(24)
		k := 8 + rng.Intn(24)
		n := 8 + rng.Intn(24)
		ai := randMatrix(rng, m, k, 0.3)
		bi := randMatrix(rng, k, n, 0.3)
		af := randMatrixF64(rng, m, k, 0.3)
		bf := randMatrixF64(rng, k, n, 0.3)
		maskI := randMatrix(rng, m, n, 0.4)
		for _, method := range methods {
			for _, masked := range []bool{false, true} {
				d := grb.Descriptor{Method: method.m}
				var gm *grb.Matrix[int64]
				if masked {
					gm = maskI
				}
				baseI := grb.MustMatrix[int64](m, n)
				if err := grb.MxM(baseI, gm, nil, grb.PlusTimes[int64](), ai, bi, &d); err != nil {
					t.Fatal(err)
				}
				baseF := grb.MustMatrix[float64](m, n)
				if err := grb.MxM[float64, float64, float64, int64](baseF, nil, nil, grb.PlusTimes[float64](), af, bf, &d); err != nil {
					t.Fatal(err)
				}
				for _, fa := range allForms {
					for _, fb := range allForms {
						label := fmt.Sprintf("t%d/%s/masked=%v/a=%s/b=%s", trial, method.name, masked, fa, fb)
						cI := grb.MustMatrix[int64](m, n)
						trace := obs.NewTrace(4)
						restore := obs.Set(trace)
						err := grb.MxM(cI, gm, nil, grb.PlusTimes[int64](), inForm(ai, fa), inForm(bi, fb), &d)
						obs.Set(restore)
						if err != nil {
							t.Fatal(err)
						}
						mustIdenticalMat(t, label+"/int64", cI, baseI)
						if ops := trace.Ops(); ops[len(ops)-1].Kernel != method.name {
							t.Fatalf("%s: forced %s ran kernel %q", label, method.name, ops[len(ops)-1].Kernel)
						}
						cF := grb.MustMatrix[float64](m, n)
						if err := grb.MxM[float64, float64, float64, int64](cF, nil, nil, grb.PlusTimes[float64](), inForm(af, fa), inForm(bf, fb), &d); err != nil {
							t.Fatal(err)
						}
						mustIdenticalMat(t, label+"/float64", cF, baseF)
					}
				}
			}
		}
	}
}

// TestFormatConformanceVxM pins the vxm kernels — push and pull — to
// identical bits across operand forms and forced directions.
func TestFormatConformanceVxM(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dirs := []struct {
		name string
		d    grb.Direction
	}{{"auto", grb.DirAuto}, {"push", grb.DirPush}, {"pull", grb.DirPull}}
	for trial := 0; trial < 6; trial++ {
		m := 8 + rng.Intn(32)
		n := 8 + rng.Intn(32)
		ai := randMatrix(rng, m, n, 0.3)
		af := randMatrixF64(rng, m, n, 0.3)
		ui := randVector(rng, m, 0.6)
		uf := randVectorF64(rng, m, 0.6)
		maskI := randVector(rng, n, 0.5)
		for _, dir := range dirs {
			for _, masked := range []bool{false, true} {
				d := grb.Descriptor{Dir: dir.d}
				var gm *grb.Vector[int64]
				if masked {
					gm = maskI
				}
				baseI := grb.MustVector[int64](n)
				if err := grb.VxM(baseI, gm, nil, grb.PlusTimes[int64](), ui, ai, &d); err != nil {
					t.Fatal(err)
				}
				baseF := grb.MustVector[float64](n)
				if err := grb.VxM[float64, float64, float64, int64](baseF, nil, nil, grb.PlusTimes[float64](), uf, af, &d); err != nil {
					t.Fatal(err)
				}
				for _, fa := range allForms {
					label := fmt.Sprintf("t%d/%s/masked=%v/a=%s", trial, dir.name, masked, fa)
					wI := grb.MustVector[int64](n)
					if err := grb.VxM(wI, gm, nil, grb.PlusTimes[int64](), ui, inForm(ai, fa), &d); err != nil {
						t.Fatal(err)
					}
					mustIdenticalVec(t, label+"/int64", wI, baseI)
					wF := grb.MustVector[float64](n)
					if err := grb.VxM[float64, float64, float64, int64](wF, nil, nil, grb.PlusTimes[float64](), uf, inForm(af, fa), &d); err != nil {
						t.Fatal(err)
					}
					mustIdenticalVec(t, label+"/float64", wF, baseF)
				}
			}
		}
	}
}

// TestFormatConformanceReduce pins reductions across forms.
func TestFormatConformanceReduce(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 6; trial++ {
		m := 8 + rng.Intn(32)
		n := 8 + rng.Intn(32)
		af := randMatrixF64(rng, m, n, 0.3)
		baseV := grb.MustVector[float64](m)
		if err := grb.ReduceMatrixToVector[float64, bool](baseV, nil, nil, grb.PlusMonoid[float64](), af, nil); err != nil {
			t.Fatal(err)
		}
		baseS, err := grb.ReduceMatrixToScalar(grb.PlusMonoid[float64](), af)
		if err != nil {
			t.Fatal(err)
		}
		for _, fa := range allForms {
			a := inForm(af, fa)
			w := grb.MustVector[float64](m)
			if err := grb.ReduceMatrixToVector[float64, bool](w, nil, nil, grb.PlusMonoid[float64](), a, nil); err != nil {
				t.Fatal(err)
			}
			mustIdenticalVec(t, fmt.Sprintf("t%d/%s/vector", trial, fa), w, baseV)
			s, err := grb.ReduceMatrixToScalar(grb.PlusMonoid[float64](), a)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(s) != math.Float64bits(baseS) {
				t.Fatalf("t%d/%s: scalar reduce %v, want %v", trial, fa, s, baseS)
			}
		}
	}
}

// TestFormatConformanceParallelism pins bitwise-identical results at
// P=1 vs P=8 for every form (run under -race in CI).
func TestFormatConformanceParallelism(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	m, k, n := 40, 48, 44
	af := randMatrixF64(rng, m, k, 0.4)
	bf := randMatrixF64(rng, k, n, 0.4)
	uf := randVectorF64(rng, m, 0.7)
	defer grb.SetParallelism(grb.SetParallelism(1))
	for _, fa := range allForms {
		var mxmRes []*grb.Matrix[float64]
		var vxmRes []*grb.Vector[float64]
		for _, p := range []int{1, 8} {
			grb.SetParallelism(p)
			c := grb.MustMatrix[float64](m, n)
			if err := grb.MxM[float64, float64, float64, bool](c, nil, nil, grb.PlusTimes[float64](), inForm(af, fa), inForm(bf, fa), nil); err != nil {
				t.Fatal(err)
			}
			mxmRes = append(mxmRes, c)
			w := grb.MustVector[float64](k)
			if err := grb.VxM[float64, float64, float64, bool](w, nil, nil, grb.PlusTimes[float64](), uf, inForm(af, fa), nil); err != nil {
				t.Fatal(err)
			}
			vxmRes = append(vxmRes, w)
		}
		mustIdenticalMat(t, fa+"/mxm P1 vs P8", mxmRes[1], mxmRes[0])
		mustIdenticalVec(t, fa+"/vxm P1 vs P8", vxmRes[1], vxmRes[0])
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
		forms := map[string]*grb.Matrix[float64]{
			"standard": randMatrixF64(rng, m, n, 0.3),
			"hyper":    randMatrixF64(rng, 1<<20, 1<<20, 1e-10),
			"dense":    heldDense(randMatrixF64(rng, m, n, 0.3)),
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
			mustIdenticalMat(t, form+"/tuples", c, b)
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
	af := randMatrixF64(rng, m, k, 0.4)
	bf := randMatrixF64(rng, k, n, 0.4)
	uf := randVectorF64(rng, m, 0.7)

	run := func() (*grb.Matrix[float64], *grb.Vector[float64]) {
		c := grb.MustMatrix[float64](m, n)
		if err := grb.MxM[float64, float64, float64, bool](c, nil, nil, grb.PlusTimes[float64](), heldDense(af), heldDense(bf), nil); err != nil {
			t.Fatal(err)
		}
		w := grb.MustVector[float64](k)
		if err := grb.VxM[float64, float64, float64, bool](w, nil, nil, grb.PlusTimes[float64](), uf, heldDense(af), nil); err != nil {
			t.Fatal(err)
		}
		return c, w
	}

	baseC, baseW := run()

	trace := obs.NewTrace(1024)
	defer obs.Set(obs.Set(trace))
	for i := 0; i < 2; i++ {
		c, w := run()
		mustIdenticalMat(t, fmt.Sprintf("traced round %d mxm", i), c, baseC)
		mustIdenticalVec(t, fmt.Sprintf("traced round %d vxm", i), w, baseW)
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
	a := randMatrix(rng, m, n, 0.6)
	u := randVector(rng, m, 0.8)

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
	mustIdenticalVec(t, "push vs auto", run(&grb.Descriptor{Dir: grb.DirPush}), want)
	mustIdenticalVec(t, "pull vs auto", run(&grb.Descriptor{Dir: grb.DirPull}), want)

	var got []string
	for _, r := range trace.Ops() {
		if r.Op == "vxm" {
			got = append(got, r.Policy+"/"+r.Kernel)
		}
	}
	// u is 80% full, so the static density switch pulls.
	if fmt.Sprint(got) != "[static/pull forced/push forced/pull]" {
		t.Fatalf("vxm op records %v; want [static/pull forced/push forced/pull]", got)
	}
}
