package grb_test

// The traversal semirings under a complemented mask against the mimic. A
// byte-coded program builds a frontier, a matrix, a mask and a prior
// output, and runs w⟨¬m⟩ = u lor.first A or u any.first A as VxM, and the
// same over a matrix of frontier values as MxV: pushed, pulled and left to
// the switch; the mask held compressed and held dense; tagged and literal.
// Every run must give the mimic's bits. vxmImpl probes a complemented mask
// on lanes whatever its form, so the compressed run reads a pooled scratch
// the dense one does not.
//
// The mimic folds without an exit. Under lor that is the same value; under
// any it is the last product, where the kernels exit at the first, so
// any.first is held to a mimic whose operator keeps its first operand: the
// product of the least input index, which both directions meet first.

import (
	"fmt"
	"math/rand"
	"testing"

	"lagraph/internal/grb"
	"lagraph/internal/grb/ref"
)

// traversalProgram is one program's operands over E, the left operand of
// the semirings under test.
type traversalProgram[E comparable] struct {
	m, n             int
	u                *grb.Vector[E]       // VxM's frontier, over m
	a                *grb.Matrix[float64] // VxM's matrix, m×n
	at               *grb.Matrix[E]       // MxV's matrix of frontier values, n×m
	uf               *grb.Vector[float64] // MxV's vector, over m: u's pattern
	mask             *grb.Vector[bool]    // over n, compressed
	w0               *grb.Vector[E]       // the prior output, over n
	replace, byValue bool
}

func readTraversalProgram[E comparable](r *progReader, val func(b, i int) E) traversalProgram[E] {
	p := traversalProgram[E]{m: 1 + r.next()%40, n: 1 + r.next()%40}
	flags := r.next()
	p.replace, p.byValue = flags&1 != 0, flags&2 != 0
	p.u, p.uf = grb.MustVector[E](p.m), grb.MustVector[float64](p.m)
	for i := 0; i < p.m; i++ {
		if r.next()%3 != 0 {
			_ = p.u.SetElement(i, val(r.next(), i))
			_ = p.uf.SetElement(i, 1)
		}
	}
	p.mask, p.w0 = grb.MustVector[bool](p.n), grb.MustVector[E](p.n)
	for k := r.next() % (p.n + 1); k > 0; k-- {
		_ = p.mask.SetElement(r.next()%p.n, r.next()%3 != 0)
	}
	for k := r.next() % (p.n + 1); k > 0; k-- {
		_ = p.w0.SetElement(r.next()%p.n, val(r.next(), p.m))
	}
	p.a, p.at = grb.MustMatrix[float64](p.m, p.n), grb.MustMatrix[E](p.n, p.m)
	for !r.done() {
		i, j, b := r.next()%p.m, r.next()%p.n, r.next()
		_ = p.a.SetElement(i, j, 1)
		_ = p.at.SetElement(j, i, val(b, i))
	}
	for _, v := range []interface{ Wait() }{p.u, p.uf, p.mask, p.w0, p.a, p.at} {
		v.Wait()
	}
	return p
}

// check runs every direction, mask form, entry point and twin, and fails at
// the first result that is not the mimic's.
func (p traversalProgram[E]) check(t *testing.T, name string, tagged, literal, mimic grb.Semiring[E, float64, E]) {
	t.Helper()
	rd := ref.Desc{Replace: p.replace, Comp: true, MaskValue: p.byValue}
	rmask := ref.FromVector(p.mask)
	wantVxM, wantMxV := ref.FromVector(p.w0), ref.FromVector(p.w0)
	ref.VxM(wantVxM, rmask, nil, mimic, ref.FromVector(p.u), ref.FromMatrix(p.a), rd)
	ref.MxV(wantMxV, rmask, nil, mimic, ref.FromMatrix(p.at), ref.FromVector(p.uf), rd)
	forms := map[string]*grb.Vector[bool]{"compressed": p.mask, "dense": held(p.mask, denseHeld)}
	if d, _ := p.mask.Forms(); d {
		t.Fatal("the compressed mask is dense-held")
	}
	for _, dir := range []grb.Direction{grb.DirPush, grb.DirPull, grb.DirAuto} {
		d := &grb.Descriptor{Replace: p.replace, Comp: true, MaskValue: p.byValue, Dir: dir}
		for form, mask := range forms {
			for twin, s := range map[string]grb.Semiring[E, float64, E]{"tagged": tagged, "literal": literal} {
				label := fmt.Sprintf("%s %s, mask %s, dir %v", name, twin, form, dir)
				w := p.w0.Dup()
				if err := grb.VxM(w, mask, nil, s, p.u, p.a, d); err != nil {
					t.Fatal(err)
				}
				mustMatch[E](t, "vxm "+label, w, wantVxM, byBits)
				w = p.w0.Dup()
				if err := grb.MxV(w, mask, nil, s, p.at, p.uf, d); err != nil {
					t.Fatal(err)
				}
				mustMatch[E](t, "mxv "+label, w, wantMxV, byBits)
			}
		}
	}
}

// runTraversalProgram picks the semiring from the program's first byte and
// checks the rest.
func runTraversalProgram(t *testing.T, prog []byte) {
	r := &progReader{b: prog}
	if r.next()%2 == 0 {
		lor := grb.Semiring[bool, float64, bool]{Add: grb.LOrMonoid(), Mul: grb.First[bool, float64]()}
		p := readTraversalProgram(r, func(b, _ int) bool { return b%4 == 0 })
		p.check(t, "lor.first", grb.LOrFirst[float64](), lor, lor)
		return
	}
	first := grb.First[int64, float64]()
	literal := grb.Semiring[int64, float64, int64]{Add: grb.AnyMonoid[int64](), Mul: first}
	keepFirst := grb.Semiring[int64, float64, int64]{Add: grb.Monoid[int64]{Op: func(x, _ int64) int64 { return x }}, Mul: first}
	p := readTraversalProgram(r, func(b, i int) int64 { return int64(b)<<8 | int64(i) })
	p.check(t, "any.first", grb.AnyFirstOf[int64, float64](), literal, keepFirst)
}

// FuzzTraversalMask searches for a program on which a traversal semiring
// under a complemented mask leaves the mimic.
func FuzzTraversalMask(f *testing.F) {
	f.Add([]byte{0, 11, 17, 0, 1, 3, 1, 0, 2, 5, 1, 1, 2, 4, 3, 7, 0, 2, 9, 5, 6, 8, 1, 3, 3, 2, 7, 7, 7, 1, 1, 1, 4, 9, 2})
	f.Add([]byte{1, 23, 9, 1, 4, 4, 4, 4, 4, 1, 2, 3, 2, 8, 1, 0, 6, 3, 3, 3, 0, 0, 0, 9, 1, 7, 2, 5, 4, 3, 8, 2, 1, 6, 0, 5})
	f.Add([]byte{0, 39, 39, 3, 2, 2, 2, 2, 0, 40, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20})
	f.Add([]byte{3, 5, 33, 2, 0, 1, 1, 1, 1, 9, 4, 0, 4, 1, 4, 2, 4, 3, 0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 1024 {
			return
		}
		runTraversalProgram(t, prog)
	})
}

// TestTraversalMaskProgramsVsMimic runs seeded random programs through the
// fuzzer's body on every `go test`.
func TestTraversalMaskProgramsVsMimic(t *testing.T) {
	rng := rand.New(rand.NewSource(4701))
	for trial := 0; trial < 300; trial++ {
		prog := make([]byte, 20+rng.Intn(300))
		rng.Read(prog)
		runTraversalProgram(t, prog)
	}
}
