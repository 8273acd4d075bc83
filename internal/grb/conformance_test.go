package grb_test

// The conformance table: §II-A's methodology, where every operation is
// written a second time as the dense mimic of internal/grb/ref and the
// sparse kernels are held to it in value and pattern. A row is one
// operation — its grb call and its mimic call. The driver crosses every row
// with the write rule's axes:
//
//   - output, mask and operand forms: standard, hypersparse or dense-held
//     (a vector has no hypersparse layout; a binary row also meets its two
//     operands held in different forms);
//   - mask: none, structural, complemented, value or complemented value;
//   - accumulator: nil or plus; replace: off or on;
//   - the transposes the row takes (the operand is stored transposed, so the
//     result does not move);
//   - P: 1 or 8 workers.
//
// int64 cases compare values; float64 cases compare bits, since the kernels
// meet every output's terms in ascending index order whatever the form,
// direction or worker count, exactly as the mimic does. The toy shape runs
// the whole product. Every other shape pins a route the toy one cannot
// reach — work that eight workers cut into chunks, vectors on either side of
// the dense result route's fill bar, an output that is also an operand, an
// extract whose width dwarfs its work — and runs the rows and forms that
// route needs. A new operation is one row and a new route is one row or one
// axis value (CONTRIBUTING rule 3): TestTableCoversMaskedOps fails when an
// exported operation that takes a write mask is neither.

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"lagraph/internal/grb"
	"lagraph/internal/grb/ref"
	"lagraph/internal/obs"
)

// form is how an object is held. A toy object is standard by content; the
// test hook Hold reaches the other two.
type form string

const (
	standard    form = "standard"
	hypersparse form = "hyper"
	denseHeld   form = "dense"
)

var allForms = []form{standard, hypersparse, denseHeld}

// held returns a copy of x held in form f.
func held[O interface {
	Dup() O
	Hold(string) bool
}](x O, f form) O {
	y := x.Dup()
	if !y.Hold(string(f)) {
		panic("held: beyond the dense cell cap")
	}
	return y
}

// random draws an nr×nc matrix: int(density·nr·nc) uniform positions, each
// with a value from val; a position drawn twice keeps its last value.
func random[T any](rng *rand.Rand, nr, nc int, density float64, val func(*rand.Rand) T) *grb.Matrix[T] {
	a := grb.MustMatrix[T](nr, nc)
	for k := int(density * float64(nr) * float64(nc)); k > 0; k-- {
		_ = a.SetElement(rng.Intn(nr), rng.Intn(nc), val(rng))
	}
	a.Wait()
	return a
}

// vecOf is the vector a 1×n matrix holds.
func vecOf[T any](a *grb.Matrix[T]) *grb.Vector[T] {
	_, js, xs := a.ExtractTuples()
	v := grb.MustVector[T](a.Ncols())
	if err := v.Build(js, xs, nil); err != nil {
		panic(err)
	}
	return v
}

// small, normal and coin are the value draws: small integers, exact in any
// order of arithmetic; full-mantissa float64s, whose sums show the order
// their terms met in; booleans.
func small(rng *rand.Rand) int64    { return int64(rng.Intn(9) - 4) }
func normal(rng *rand.Rand) float64 { return rng.NormFloat64() }
func coin(rng *rand.Rand) bool      { return rng.Intn(2) == 0 }

// fullVector has an entry at every index.
func fullVector[T grb.Number](n int) *grb.Vector[T] {
	v := grb.MustVector[T](n)
	for i := 0; i < n; i++ {
		_ = v.SetElement(i, T(i%9)-4)
	}
	v.Wait()
	return v
}

func uniqueIdx(rng *rand.Rand, n, want int) []int {
	return rng.Perm(n)[:min(want, n)]
}

// dupOf is idx with its first index repeated at the end.
func dupOf(idx []int) []int {
	return append(slices.Clone(idx), idx[0])
}

// byValue and byBits are mustMatch's modes: values compared with ==, or by
// their bits, so that NaNs compare by representation and −0 differs from 0.
const (
	byValue = false
	byBits  = true
)

// mustMatch fails the test unless got and want — each a grb matrix or
// vector, a mimic of one, or its entries — agree in shape, pattern and
// value.
func mustMatch[T comparable](t testing.TB, label string, got, want any, bits bool) {
	t.Helper()
	g, w := entriesOf[T](got), entriesOf[T](want)
	if g.nr != w.nr || g.nc != w.nc {
		t.Fatalf("%s: %d×%d, want %d×%d", label, g.nr, g.nc, w.nr, w.nc)
	}
	for k := 0; k < len(g.is) || k < len(w.is); k++ {
		if k == len(g.is) || k == len(w.is) || g.is[k] != w.is[k] || g.js[k] != w.js[k] || !same(g.xs[k], w.xs[k], bits) {
			t.Fatalf("%s: entry %d is %s, want %s", label, k, g.at(k), w.at(k))
		}
	}
}

// same compares two values, by their bits when bits is set.
func same[T comparable](a, b T, bits bool) bool {
	if fa, ok := any(a).(float64); ok && bits {
		return math.Float64bits(fa) == math.Float64bits(any(b).(float64))
	}
	return a == b
}

// entries is an object's stored entries in row-major order; a vector is a
// 1×n matrix.
type entries[T any] struct {
	nr, nc int
	is, js []int
	xs     []T
}

func (e entries[T]) at(k int) string {
	if k >= len(e.is) {
		return "absent"
	}
	return fmt.Sprintf("(%d,%d)=%v", e.is[k], e.js[k], e.xs[k])
}

func entriesOf[T any](x any) entries[T] {
	var e entries[T]
	switch x := x.(type) {
	case entries[T]:
		return x
	case *grb.Matrix[T]:
		e.nr, e.nc = x.Nrows(), x.Ncols()
		e.is, e.js, e.xs = x.ExtractTuples()
	case *grb.Vector[T]:
		js, xs := x.ExtractTuples()
		return entries[T]{1, x.Size(), make([]int, len(js)), js, xs}
	case *ref.Mat[T]:
		e.nr, e.nc = x.NRows, x.NCols
		for i := range x.Set {
			for j, set := range x.Set[i] {
				if set {
					e.is, e.js, e.xs = append(e.is, i), append(e.js, j), append(e.xs, x.Val[i][j])
				}
			}
		}
	case *ref.Vec[T]:
		return entriesOf[T](&ref.Mat[T]{NRows: 1, NCols: x.N, Val: [][]T{x.Val}, Set: [][]bool{x.Set}})
	default:
		panic(fmt.Sprintf("entriesOf: %T", x))
	}
	return e
}

// mustSerializeLikeTwin fails unless x, a matrix or vector, serializes to
// the bytes of a twin built from its tuples that has only ever been
// compressed.
func mustSerializeLikeTwin[T any](t testing.TB, label string, x any) {
	t.Helper()
	var got, want bytes.Buffer
	var err error
	switch x := x.(type) {
	case *grb.Matrix[T]:
		is, js, xs := x.ExtractTuples()
		twin := grb.MustMatrix[T](x.Nrows(), x.Ncols())
		err = errors.Join(grb.SerializeMatrix(&got, x), twin.Build(is, js, xs, nil), grb.SerializeMatrix(&want, twin))
	case *grb.Vector[T]:
		is, xs := x.ExtractTuples()
		twin := grb.MustVector[T](x.Size())
		err = errors.Join(grb.SerializeVector(&got, x), twin.Build(is, xs, nil), grb.SerializeVector(&want, twin))
	}
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("%s: serialized bytes differ from the compressed twin's (%d vs %d bytes)", label, got.Len(), want.Len())
	}
}

// maskCase is one mask configuration of the write rule.
type maskCase struct {
	name    string
	useMask bool
	desc    grb.Descriptor
}

// writeCases is masks {none, structural, complemented, value, complemented
// value} × replace {off, on} (replace without a mask is the no-mask case).
func writeCases() []maskCase {
	out := []maskCase{{"nomask", false, grb.Descriptor{}}}
	for _, name := range []string{"struct", "comp", "value", "compvalue", "struct+replace", "comp+replace", "value+replace", "compvalue+replace"} {
		d := grb.Descriptor{Comp: strings.HasPrefix(name, "comp"), MaskValue: strings.Contains(name, "value"), Replace: strings.HasSuffix(name, "replace")}
		out = append(out, maskCase{name, true, d})
	}
	return out
}

func refDesc(d grb.Descriptor) ref.Desc {
	return ref.Desc{TranA: d.TranA, TranB: d.TranB, Replace: d.Replace, Comp: d.Comp, MaskValue: d.MaskValue}
}

// salted returns a copy of a with, over int64, about a third of its
// entries replaced by min's terminal and identity, which a tagged loop must
// treat as its literal twin does.
func salted[T grb.Number](rng *rand.Rand, a *grb.Matrix[T]) *grb.Matrix[T] {
	var xs []T
	if p, ok := any(&xs).(*[]int64); ok {
		*p = []int64{math.MinInt64, math.MaxInt64}
	}
	b := a.Dup()
	is, js, _ := b.ExtractTuples()
	for k := range is {
		if x := rng.Intn(6); x < 2 && len(xs) > 0 {
			_ = b.SetElement(is[k], js[k], xs[(x+k)%len(xs)])
		}
	}
	b.Wait()
	return b
}

// shape is one draw of everything the rows read, and the part of the
// product its cases run. A matrix output is m×n and a vector output n long
// unless a row says otherwise.
type shape[T grb.Number] struct {
	name                         string
	seed                         int64
	m, n                         int
	rng                          *rand.Rand
	val                          func(*rand.Rand) T
	rows                         func(name string) bool // nil runs every row
	outForms, maskForms, inForms []form
	ps                           []int
	cFill, maskFill              []float64 // of the output's initial value and of the mask
	aliases                      []int     // aliasU, aliasV: the output is also that operand
	flipped                      map[*grb.Matrix[T]]*grb.Matrix[T]
	mimics                       map[any]any // operand → its mimic, which no operation writes

	a, b, at, left, right, big, sub, ka, kb *grb.Matrix[T]
	xleft, xright, xa                       *grb.Matrix[T] // salted for the twin rows
	u, v, um, bigU, subU, fullU, dupU, rowU *grb.Vector[T]
	rowSub, rowDup, xu, xum                 *grb.Vector[T]
	bigI, bigJ, permI, permJ, subI, subJ    []int
	idx, gather, subIdx                     []int
	rowI, colJ                              int
}

const (
	aliasU = 1 << iota
	aliasV
)

// newShape draws every operand for outputs of m×n, an inner dimension of k.
func newShape[T grb.Number](name string, seed int64, m, k, n int, val func(*rand.Rand) T) *shape[T] {
	rng := rand.New(rand.NewSource(seed))
	s := &shape[T]{name: name, seed: seed, m: m, n: n, rng: rng, val: val,
		outForms: allForms, maskForms: allForms, inForms: allForms, ps: []int{1, 8},
		cFill: []float64{0.4}, maskFill: []float64{0.5}, aliases: []int{0},
		flipped: map[*grb.Matrix[T]]*grb.Matrix[T]{}, mimics: map[any]any{}}
	mat := func(nr, nc int, d float64) *grb.Matrix[T] { return random(rng, nr, nc, d, val) }
	vec := func(n int, d float64) *grb.Vector[T] { return vecOf(random(rng, 1, n, d, val)) }
	s.a, s.b, s.at = mat(m, n, 0.35), mat(m, n, 0.35), mat(n, m, 0.35)
	s.left, s.right = mat(m, k, 0.4), mat(k, n, 0.4)
	s.big, s.bigI, s.bigJ = mat(m+3, n+2, 0.4), uniqueIdx(rng, m+3, m), uniqueIdx(rng, n+2, n)
	s.permI, s.permJ = rng.Perm(m), rng.Perm(n)
	sr, sc := 1+rng.Intn(m), 1+rng.Intn(n)
	s.sub, s.subI, s.subJ = mat(sr, sc, 0.6), uniqueIdx(rng, m, sr), uniqueIdx(rng, n, sc)
	s.rowI, s.colJ, s.rowU, s.rowSub = rng.Intn(m), rng.Intn(n), vec(n, 0.5), vec(sc, 0.6)
	s.u, s.v, s.um = vec(n, 0.4), vec(n, 0.4), vec(m, 0.5)
	s.bigU, s.idx = vec(n+4, 0.5), uniqueIdx(rng, n+4, n)
	s.gather = make([]int, n+5) // into u, repeating and omitting indices
	for t := range s.gather {
		s.gather[t] = rng.Intn(n)
	}
	sn := 1 + rng.Intn(n)
	s.subU, s.fullU, s.subIdx = vec(sn, 0.7), fullVector[T](sn), uniqueIdx(rng, n, sn)
	// The operands of dupOf's index lists: the repeated position's first u
	// entry holds a value and its last holds none, which is what it takes.
	lastAbsent := func(n int) *grb.Vector[T] {
		u := vec(n, 0.6)
		_ = u.SetElement(0, 1)
		_ = u.RemoveElement(n - 1)
		u.Wait()
		return u
	}
	s.rowDup, s.dupU = lastAbsent(sc+1), lastAbsent(sn+1)
	s.ka, s.kb = mat(2, 3, 0.5), mat(3, 2, 0.5)
	// Dense enough that a pull meets most rows and columns more than once.
	s.xleft, s.xright, s.xa = salted(rng, s.left), salted(rng, s.right), salted(rng, mat(m, n, 0.7))
	s.xu, s.xum = vecOf(salted(rng, mat(1, n, 0.7))), vecOf(salted(rng, mat(1, m, 0.7)))
	return s
}

// orient returns x, or under tran x stored transposed, which the transpose
// descriptor reads back as x.
func (s *shape[T]) orient(x *grb.Matrix[T], tran bool) *grb.Matrix[T] {
	if !tran {
		return x
	}
	if f, ok := s.flipped[x]; ok {
		return f
	}
	is, js, xs := x.ExtractTuples()
	f := grb.MustMatrix[T](x.Ncols(), x.Nrows())
	if err := f.Build(js, is, xs, nil); err != nil {
		panic(err)
	}
	s.flipped[x] = f
	return f
}

// kase is one case of one row: the descriptor, accumulator and forms, and
// both implementations' output and mask.
type kase[T grb.Number] struct {
	t     testing.TB
	s     *shape[T]
	d     grb.Descriptor
	accum grb.BinaryOp[T, T, T]
	out   form
	in    [2]form
	alias int
	c     *grb.Matrix[T]
	w, w0 *grb.Vector[T]
	m     *grb.Matrix[bool]
	mv    *grb.Vector[bool]
	rc    *ref.Mat[T]
	rw    *ref.Vec[T]
	rm    *ref.Mat[bool]
	rmv   *ref.Vec[bool]
}

// A and B are the case's matrix operands, stored transposed under TranA
// (TranB) and held in the first (second) operand form.
func (k *kase[T]) A(x *grb.Matrix[T]) *grb.Matrix[T] { return held(k.s.orient(x, k.d.TranA), k.in[0]) }
func (k *kase[T]) B(x *grb.Matrix[T]) *grb.Matrix[T] { return held(k.s.orient(x, k.d.TranB), k.in[1]) }

// U and V are its vector operands, or the output where it aliases them.
func (k *kase[T]) U(x *grb.Vector[T]) *grb.Vector[T] { return k.vec(aliasU, x, k.in[0]) }
func (k *kase[T]) V(x *grb.Vector[T]) *grb.Vector[T] { return k.vec(aliasV, x, k.in[1]) }

func (k *kase[T]) vec(alias int, x *grb.Vector[T], f form) *grb.Vector[T] {
	if k.alias&alias != 0 {
		return k.w
	}
	return held(x, f)
}

// R is x's mimic; RA, RB, RU and RV are the operands as the mimic reads
// them.
func (k *kase[T]) R(x *grb.Matrix[T]) *ref.Mat[T]  { return mimicOf[*ref.Mat[T]](k.s, x) }
func (k *kase[T]) RA(x *grb.Matrix[T]) *ref.Mat[T] { return k.R(k.s.orient(x, k.d.TranA)) }
func (k *kase[T]) RB(x *grb.Matrix[T]) *ref.Mat[T] { return k.R(k.s.orient(x, k.d.TranB)) }

func (k *kase[T]) RU(x *grb.Vector[T]) *ref.Vec[T] { return k.rvec(aliasU, x) }
func (k *kase[T]) RV(x *grb.Vector[T]) *ref.Vec[T] { return k.rvec(aliasV, x) }

func (k *kase[T]) rvec(alias int, x *grb.Vector[T]) *ref.Vec[T] {
	if k.alias&alias != 0 {
		x = k.w0
	}
	return mimicOf[*ref.Vec[T]](k.s, x)
}

// mimicOf returns the mimic of x, a grb matrix or vector, converting it
// once per shape.
func mimicOf[M any, T grb.Number](s *shape[T], x any) M {
	if m, ok := s.mimics[x]; ok {
		return m.(M)
	}
	var m any
	if v, ok := x.(*grb.Vector[T]); ok {
		m = ref.FromVector(v)
	} else {
		m = ref.FromMatrix(x.(*grb.Matrix[T]))
	}
	s.mimics[x] = m
	return m.(M)
}

func (k *kase[T]) rd() ref.Desc { return refDesc(k.d) }

// write is the mimic's write rule applied to a computed z, for the rows
// the mimic has no operation for: a whole-object assign is exactly that.
func (k *kase[T]) write(z *ref.Mat[T]) {
	if k.rw != nil {
		ref.AssignVec(k.rw, k.rmv, k.accum, &ref.Vec[T]{N: z.NCols, Val: z.Val[0], Set: z.Set[0]}, nil, k.rd())
		return
	}
	ref.Assign(k.rc, k.rm, k.accum, z, nil, nil, k.rd())
}

// cells returns the nr×nc mimic whose (i, j) is f(i, j), where f has one.
func cells[T any](nr, nc int, f func(i, j int) (T, bool)) *ref.Mat[T] {
	z := ref.NewMat[T](nr, nc)
	for i := range z.Val {
		for j := range z.Val[i] {
			z.Val[i][j], z.Set[i][j] = f(i, j)
		}
	}
	return z
}

// maskRow is row i of the case's matrix mask, the vector mask a row assign
// takes, held in the form the matrix mask is.
func (k *kase[T]) maskRow(i int) *grb.Vector[bool] {
	if k.m == nil {
		return nil
	}
	v := grb.MustVector[bool](k.m.Ncols())
	if err := grb.ExtractMatrixRow(v, (*grb.Vector[bool])(nil), nil, k.m, i, grb.All, nil); err != nil {
		panic(err)
	}
	dense, _ := k.m.Forms()
	if dense {
		v.Hold(string(denseHeld))
	}
	return v
}

// operands is what a row reads besides its output and mask.
type operands int

const (
	matrixIn operands = iota // matrices, and maybe vectors beside them
	binaryIn                 // two objects of the output's kind
	vectorIn                 // vectors only
	scalarIn                 // nothing to hold
)

// row is one operation: its grb call and its mimic call, each reading its
// operands through the case. vec says the output is a vector; nr×nc is the
// output's shape (a vector's length is nc), m×n (n) when zero. tran is how
// many transposes it takes: 0, 1 (TranA) or 2 (TranA and TranB).
type row[T grb.Number] struct {
	name   string
	vec    bool
	nr, nc int
	tran   int
	in     operands
	run    func(k *kase[T]) error
	mimic  func(k *kase[T])
}

// table is every row, over s's operands.
func table[T grb.Number](s *shape[T]) []row[T] {
	type k = *kase[T]
	plus, times, minus, least := grb.Plus[T](), grb.Times[T](), grb.Minus[T](), grb.MinOp[T]()
	neg := func(x T) T { return -x }
	index := func(x T, i, j int) T { return x + T(i) - T(2*j) }
	const scalar, alpha, beta = 7, 3, 2
	union := func(x T, xok bool, y T, yok bool) (T, bool) {
		if !xok {
			x = alpha
		}
		if !yok {
			y = beta
		}
		return x - y, xok || yok
	}
	at := func(a *ref.Mat[T], i, j int) (T, bool) { return a.Val[i][j], a.Set[i][j] }
	full := func(nr, nc int) *ref.Mat[T] {
		return cells(nr, nc, func(int, int) (T, bool) { return scalar, true })
	}
	// C ⊙= left·right by the kernel named (MxMAuto's pick when it is ""),
	// into an empty C held as C was when empty is set: the write rule's
	// adopt arm then takes the kernel's result as it is, so the kernel
	// alone must have applied the mask. A form never changes which kernel
	// a forced method runs.
	mxm := func(name, kernel string, empty bool) row[T] {
		method := map[string]grb.MxMMethod{"": grb.MxMAuto, "gustavson": grb.MxMGustavson, "dot": grb.MxMDot, "heap": grb.MxMHeap}[kernel]
		return row[T]{name: name, tran: 2, in: binaryIn,
			run: func(k k) error {
				if empty {
					k.c.Clear()
					k.c.Hold(string(k.out))
				}
				k.d.Method = method
				trace := obs.NewTrace(4)
				defer obs.Set(obs.Set(trace))
				if err := grb.MxM(k.c, k.m, k.accum, grb.PlusTimes[T](), k.A(s.left), k.B(s.right), &k.d); err != nil {
					return err
				}
				if ops := trace.Ops(); kernel != "" && ops[len(ops)-1].Kernel != kernel {
					return fmt.Errorf("forced %s ran kernel %q", kernel, ops[len(ops)-1].Kernel)
				}
				return nil
			},
			mimic: func(k k) {
				if empty {
					k.rc = ref.NewMat[T](k.rc.NRows, k.rc.NCols)
				}
				ref.MxM(k.rc, k.rm, k.accum, grb.PlusTimes[T](), k.RA(s.left), k.RB(s.right), k.rd())
			}}
	}
	// C ⊙= a(I, J), nil meaning all.
	extract := func(name string, a *grb.Matrix[T], rows, cols []int) row[T] {
		nr, nc := len(rows), len(cols)
		if rows == nil {
			nr = a.Nrows()
		}
		if cols == nil {
			nc = a.Ncols()
		}
		return row[T]{name: name, nr: nr, nc: nc, tran: 1,
			run: func(k k) error { return grb.ExtractMatrix(k.c, k.m, k.accum, k.A(a), rows, cols, &k.d) },
			mimic: func(k k) {
				ref.Extract(k.rc, k.rm, k.accum, k.RA(a), rows, cols, k.rd())
			}}
	}
	scalarAssign := func(name string, rows, cols []int) row[T] {
		nr, nc := len(rows), len(cols)
		if rows == nil {
			nr = s.m
		}
		if cols == nil {
			nc = s.n
		}
		return row[T]{name: name, in: scalarIn,
			run:   func(k k) error { return grb.AssignMatrixScalar(k.c, k.m, k.accum, scalar, rows, cols, &k.d) },
			mimic: func(k k) { ref.Assign(k.rc, k.rm, k.accum, full(nr, nc), rows, cols, k.rd()) }}
	}
	rowAssign := func(name string, u *grb.Vector[T], cols []int) row[T] {
		return row[T]{name: name, in: vectorIn,
			run: func(k k) error {
				return grb.AssignMatrixRow(k.c, k.maskRow(s.rowI), k.accum, k.U(u), s.rowI, cols, &k.d)
			},
			mimic: func(k k) {
				ur := k.RU(u)
				ref.Assign(k.rc, k.rm, k.accum, &ref.Mat[T]{NRows: 1, NCols: ur.N, Val: [][]T{ur.Val}, Set: [][]bool{ur.Set}}, []int{s.rowI}, cols, k.rd())
			}}
	}
	vassign := func(name string, u *grb.Vector[T], idx []int) row[T] {
		return row[T]{name: name, vec: true, in: vectorIn,
			run:   func(k k) error { return grb.AssignVector(k.w, k.mv, k.accum, k.U(u), idx, &k.d) },
			mimic: func(k k) { ref.AssignVec(k.rw, k.rmv, k.accum, k.RU(u), idx, k.rd()) }}
	}
	vscalar := func(name string, idx []int) row[T] {
		return row[T]{name: name, vec: true, in: scalarIn,
			run: func(k k) error { return grb.AssignVectorScalar(k.w, k.mv, k.accum, scalar, idx, &k.d) },
			mimic: func(k k) {
				n := len(idx)
				if idx == nil {
					n = k.rw.N
				}
				z := full(1, n)
				ref.AssignVec(k.rw, k.rmv, k.accum, &ref.Vec[T]{N: n, Val: z.Val[0], Set: z.Set[0]}, idx, k.rd())
			}}
	}
	// VxM or MxV in direction dir by semiring sr, twinned with its literal
	// twin when tw is set; into an empty w held as w was when empty is set
	// (the write rule's adopt arm).
	product := func(name string, mxv bool, dir grb.Direction, a *grb.Matrix[T], u *grb.Vector[T], sr grb.Semiring[T, T, T], tw *taggedTwin[T], empty bool) row[T] {
		r, lit := row[T]{name: name, vec: true, tran: 1}, sr
		if tw != nil {
			lit = tw.literal
		}
		if mxv {
			r.nc = s.m
		}
		r.run = func(k k) error {
			if empty {
				k.w.Clear()
				k.w.Hold(string(k.out))
			}
			k.d.Dir = dir
			op := func(w *grb.Vector[T], sr grb.Semiring[T, T, T]) error {
				if mxv {
					return grb.MxV(w, k.mv, k.accum, sr, k.A(a), k.U(u), &k.d)
				}
				return grb.VxM(w, k.mv, k.accum, sr, k.U(u), k.A(a), &k.d)
			}
			if tw != nil {
				twinned(k.t, *tw, k.w, op)
				return nil
			}
			return op(k.w, sr)
		}
		r.mimic = func(k k) {
			if empty {
				k.rw = ref.NewVec[T](k.rw.N)
			}
			if mxv {
				ref.MxV(k.rw, k.rmv, k.accum, lit, k.RA(a), k.RU(u), k.rd())
			} else {
				ref.VxM(k.rw, k.rmv, k.accum, lit, k.RU(u), k.RA(a), k.rd())
			}
		}
		return r
	}

	rows := []row[T]{
		mxm("mxm", "", false),
		mxm("mxm/gustavson", "gustavson", false),
		mxm("mxm/dot", "dot", false),
		mxm("mxm/heap", "heap", false),
		mxm("mxm/empty-C/gustavson", "gustavson", true),
		mxm("mxm/empty-C/dot", "dot", true),
		mxm("mxm/empty-C/heap", "heap", true),
		{name: "eWiseAdd", tran: 2, in: binaryIn,
			run:   func(k k) error { return grb.EWiseAddMatrix(k.c, k.m, k.accum, plus, k.A(s.a), k.B(s.b), &k.d) },
			mimic: func(k k) { ref.EWiseAddMat(k.rc, k.rm, k.accum, plus, k.RA(s.a), k.RB(s.b), k.rd()) }},
		{name: "eWiseMult", tran: 2, in: binaryIn,
			run:   func(k k) error { return grb.EWiseMultMatrix(k.c, k.m, k.accum, times, k.A(s.a), k.B(s.b), &k.d) },
			mimic: func(k k) { ref.EWiseMultMat(k.rc, k.rm, k.accum, times, k.RA(s.a), k.RB(s.b), k.rd()) }},
		{name: "eWiseUnion", tran: 2, in: binaryIn,
			run: func(k k) error {
				return grb.EWiseUnionMatrix(k.c, k.m, k.accum, minus, k.A(s.a), alpha, k.B(s.b), beta, &k.d)
			},
			mimic: func(k k) {
				ra, rb := k.R(s.a), k.R(s.b)
				k.write(cells(s.m, s.n, func(i, j int) (T, bool) { return union(ra.Val[i][j], ra.Set[i][j], rb.Val[i][j], rb.Set[i][j]) }))
			}},
		{name: "kronecker", nr: s.ka.Nrows() * s.kb.Nrows(), nc: s.ka.Ncols() * s.kb.Ncols(), tran: 2, in: binaryIn,
			run: func(k k) error { return grb.Kronecker(k.c, k.m, k.accum, times, k.A(s.ka), k.B(s.kb), &k.d) },
			mimic: func(k k) {
				ra, rb := k.R(s.ka), k.R(s.kb)
				k.write(cells(k.rc.NRows, k.rc.NCols, func(i, j int) (T, bool) {
					x, xok := at(ra, i/rb.NRows, j/rb.NCols)
					y, yok := at(rb, i%rb.NRows, j%rb.NCols)
					return x * y, xok && yok
				}))
			}},
		{name: "apply", tran: 1,
			run:   func(k k) error { return grb.ApplyMatrix(k.c, k.m, k.accum, neg, k.A(s.a), &k.d) },
			mimic: func(k k) { ref.Apply(k.rc, k.rm, k.accum, neg, k.RA(s.a), k.rd()) }},
		{name: "apply/index", tran: 1,
			run: func(k k) error { return grb.ApplyIndexMatrix(k.c, k.m, k.accum, index, k.A(s.a), &k.d) },
			mimic: func(k k) {
				ra := k.R(s.a)
				k.write(cells(s.m, s.n, func(i, j int) (T, bool) { return index(ra.Val[i][j], i, j), ra.Set[i][j] }))
			}},
		{name: "apply/bind1st", tran: 1,
			run:   func(k k) error { return grb.ApplyMatrixBind1st(k.c, k.m, k.accum, minus, scalar, k.A(s.a), &k.d) },
			mimic: func(k k) { ref.Apply(k.rc, k.rm, k.accum, func(x T) T { return scalar - x }, k.RA(s.a), k.rd()) }},
		{name: "apply/bind2nd", tran: 1,
			run:   func(k k) error { return grb.ApplyMatrixBind2nd(k.c, k.m, k.accum, minus, k.A(s.a), scalar, &k.d) },
			mimic: func(k k) { ref.Apply(k.rc, k.rm, k.accum, func(x T) T { return x - scalar }, k.RA(s.a), k.rd()) }},
	}
	for _, p := range []struct {
		name string
		keep grb.IndexUnaryOp[T, bool]
	}{{"select", grb.ValueGT[T](0)}, {"select/tril", grb.Tril[T](0)}, {"select/offdiag", grb.OffDiag[T]()}, {"select/none", grb.ValueGT[T](9)}} {
		rows = append(rows, row[T]{name: p.name, tran: 1,
			run:   func(k k) error { return grb.SelectMatrix(k.c, k.m, k.accum, p.keep, k.A(s.a), &k.d) },
			mimic: func(k k) { ref.Select(k.rc, k.rm, k.accum, p.keep, k.RA(s.a), k.rd()) }})
	}
	rows = append(rows,
		row[T]{name: "transpose", tran: 1,
			run:   func(k k) error { return grb.Transpose(k.c, k.m, k.accum, k.A(s.at), &k.d) },
			mimic: func(k k) { ref.Transpose(k.rc, k.rm, k.accum, k.RA(s.at), k.rd()) }},
		extract("extract", s.big, s.bigI, s.bigJ),
		extract("extract/dup-I", s.big, slices.Concat(s.bigI, s.bigI), s.bigJ),
		extract("extract/dup-J", s.big, s.bigI, slices.Concat(s.bigJ, s.bigJ)),
		extract("extract/perm", s.a, s.permI, s.permJ),
		extract("extract/all-I", s.a, grb.All, s.permJ),
		extract("extract/all-J", s.a, s.permI, grb.All),
		extract("extract/all", s.a, grb.All, grb.All),
		row[T]{name: "assign",
			run:   func(k k) error { return grb.AssignMatrix(k.c, k.m, k.accum, k.A(s.a), grb.All, grb.All, &k.d) },
			mimic: func(k k) { ref.Assign(k.rc, k.rm, k.accum, k.R(s.a), nil, nil, k.rd()) }},
		row[T]{name: "assign/region",
			run:   func(k k) error { return grb.AssignMatrix(k.c, k.m, k.accum, k.A(s.sub), s.subI, s.subJ, &k.d) },
			mimic: func(k k) { ref.Assign(k.rc, k.rm, k.accum, k.R(s.sub), s.subI, s.subJ, k.rd()) }},
		scalarAssign("assign/scalar", grb.All, grb.All),
		scalarAssign("assign/scalar-region", s.subI, s.subJ),
		scalarAssign("assign/scalar-region-I", s.subI, grb.All),
		scalarAssign("assign/scalar-region-J", grb.All, s.subJ),
		rowAssign("assign/row", s.rowU, grb.All),
		rowAssign("assign/row-region", s.rowSub, s.subJ),
		rowAssign("assign/row-dup", s.rowDup, dupOf(s.subJ)),
		product("vxm", false, grb.DirAuto, s.a, s.um, grb.PlusTimes[T](), nil, false),
		product("vxm/push", false, grb.DirPush, s.a, s.um, grb.PlusTimes[T](), nil, false),
		product("vxm/pull", false, grb.DirPull, s.a, s.um, grb.PlusTimes[T](), nil, false),
		product("vxm/push/empty-w", false, grb.DirPush, s.a, s.um, grb.PlusTimes[T](), nil, true),
		product("mxv", true, grb.DirAuto, s.a, s.u, grb.PlusTimes[T](), nil, false),
		product("mxv/push", true, grb.DirPush, s.a, s.u, grb.PlusTimes[T](), nil, false),
		product("mxv/pull", true, grb.DirPull, s.a, s.u, grb.PlusTimes[T](), nil, false),
		row[T]{name: "extract/col", vec: true, nc: s.m, tran: 1,
			run: func(k k) error { return grb.ExtractMatrixCol(k.w, k.mv, k.accum, k.A(s.a), grb.All, s.colJ, &k.d) },
			mimic: func(k k) {
				ra := k.R(s.a)
				k.write(cells(1, s.m, func(_, i int) (T, bool) { return at(ra, i, s.colJ) }))
			}},
		row[T]{name: "extract/row", vec: true, tran: 1,
			run: func(k k) error { return grb.ExtractMatrixRow(k.w, k.mv, k.accum, k.A(s.a), s.rowI, s.permJ, &k.d) },
			mimic: func(k k) {
				ra := k.R(s.a)
				k.write(cells(1, s.n, func(_, t int) (T, bool) { return at(ra, s.rowI, s.permJ[t]) }))
			}},
		row[T]{name: "v/eWiseAdd", vec: true, in: binaryIn,
			run:   func(k k) error { return grb.EWiseAddVector(k.w, k.mv, k.accum, least, k.U(s.u), k.V(s.v), &k.d) },
			mimic: func(k k) { ref.EWiseAddVec(k.rw, k.rmv, k.accum, least, k.RU(s.u), k.RV(s.v), k.rd()) }},
		row[T]{name: "v/eWiseMult", vec: true, in: binaryIn,
			run:   func(k k) error { return grb.EWiseMultVector(k.w, k.mv, k.accum, times, k.U(s.u), k.V(s.v), &k.d) },
			mimic: func(k k) { ref.EWiseMultVec(k.rw, k.rmv, k.accum, times, k.RU(s.u), k.RV(s.v), k.rd()) }},
		row[T]{name: "v/eWiseUnion", vec: true, in: binaryIn,
			run: func(k k) error {
				return grb.EWiseUnionVector(k.w, k.mv, k.accum, minus, k.U(s.u), alpha, k.V(s.v), beta, &k.d)
			},
			mimic: func(k k) {
				ru, rv := k.RU(s.u), k.RV(s.v)
				k.write(cells(1, ru.N, func(_, j int) (T, bool) { return union(ru.Val[j], ru.Set[j], rv.Val[j], rv.Set[j]) }))
			}},
		row[T]{name: "v/apply", vec: true, in: vectorIn,
			run:   func(k k) error { return grb.ApplyVector(k.w, k.mv, k.accum, neg, k.U(s.u), &k.d) },
			mimic: func(k k) { ref.ApplyVec(k.rw, k.rmv, k.accum, neg, k.RU(s.u), k.rd()) }},
		row[T]{name: "v/apply/index", vec: true, in: vectorIn,
			run: func(k k) error { return grb.ApplyIndexVector(k.w, k.mv, k.accum, index, k.U(s.u), &k.d) },
			mimic: func(k k) {
				ru := k.RU(s.u)
				k.write(cells(1, ru.N, func(_, j int) (T, bool) { return index(ru.Val[j], j, 0), ru.Set[j] }))
			}},
		row[T]{name: "v/apply/bind1st", vec: true, in: vectorIn,
			run:   func(k k) error { return grb.ApplyVectorBind1st(k.w, k.mv, k.accum, minus, scalar, k.U(s.u), &k.d) },
			mimic: func(k k) { ref.ApplyVec(k.rw, k.rmv, k.accum, func(x T) T { return scalar - x }, k.RU(s.u), k.rd()) }},
		row[T]{name: "v/apply/bind2nd", vec: true, in: vectorIn,
			run:   func(k k) error { return grb.ApplyVectorBind2nd(k.w, k.mv, k.accum, minus, k.U(s.u), scalar, &k.d) },
			mimic: func(k k) { ref.ApplyVec(k.rw, k.rmv, k.accum, func(x T) T { return x - scalar }, k.RU(s.u), k.rd()) }},
		row[T]{name: "v/select", vec: true, in: vectorIn,
			run:   func(k k) error { return grb.SelectVector(k.w, k.mv, k.accum, grb.ValueGT[T](0), k.U(s.u), &k.d) },
			mimic: func(k k) { ref.SelectVec(k.rw, k.rmv, k.accum, grb.ValueGT[T](0), k.RU(s.u), k.rd()) }},
		row[T]{name: "v/extract", vec: true, in: vectorIn,
			run:   func(k k) error { return grb.ExtractVector(k.w, k.mv, k.accum, k.U(s.bigU), s.idx, &k.d) },
			mimic: func(k k) { ref.ExtractVec(k.rw, k.rmv, k.accum, k.RU(s.bigU), s.idx, k.rd()) }},
		row[T]{name: "v/extract/all", vec: true, in: vectorIn,
			run:   func(k k) error { return grb.ExtractVector(k.w, k.mv, k.accum, k.U(s.u), grb.All, &k.d) },
			mimic: func(k k) { ref.ExtractVec(k.rw, k.rmv, k.accum, k.RU(s.u), nil, k.rd()) }},
		row[T]{name: "v/extract/dup", vec: true, nc: len(s.gather), in: vectorIn,
			run:   func(k k) error { return grb.ExtractVector(k.w, k.mv, k.accum, k.U(s.u), s.gather, &k.d) },
			mimic: func(k k) { ref.ExtractVec(k.rw, k.rmv, k.accum, k.RU(s.u), s.gather, k.rd()) }},
		vassign("v/assign", s.u, grb.All),
		vassign("v/assign/region", s.subU, s.subIdx),
		vassign("v/assign/region-full", s.fullU, s.subIdx),
		// A position named twice takes its last u(t), present or not.
		vassign("v/assign/region-dup", s.dupU, dupOf(s.subIdx)),
		vscalar("v/assign/scalar", grb.All),
		vscalar("v/assign/scalar-region", s.subIdx),
	)
	// The three reductions by plus and by ANY, which keeps a row's, a
	// matrix's or a vector's first stored entry. A scalar is written over a
	// one-entry w.
	for _, r := range []struct {
		suffix string
		mon    grb.Monoid[T]
	}{{"", grb.PlusMonoid[T]()}, {"/any", grb.AnyMonoid[T]()}} {
		scalarOut := func(k k, x T, err error) error {
			if err != nil {
				return err
			}
			return grb.AssignVectorScalar(k.w, k.mv, k.accum, x, grb.All, &k.d)
		}
		rows = append(rows,
			row[T]{name: "reduce" + r.suffix, vec: true, nc: s.m, tran: 1,
				run: func(k k) error {
					return grb.ReduceMatrixToVector(k.w, k.mv, k.accum, r.mon, k.A(s.a), &k.d)
				},
				mimic: func(k k) { ref.ReduceMatToVec(k.rw, k.rmv, k.accum, r.mon, k.RA(s.a), k.rd()) }},
			row[T]{name: "reduce/scalar" + r.suffix, vec: true, nc: 1, tran: 1,
				run: func(k k) error {
					x, err := grb.ReduceMatrixToScalar(r.mon, k.A(s.a))
					return scalarOut(k, x, err)
				},
				mimic: func(k k) {
					x := ref.ReduceMatToScalar(r.mon, k.RA(s.a))
					k.write(cells(1, 1, func(int, int) (T, bool) { return x, true }))
				}},
			row[T]{name: "reduce/vector" + r.suffix, vec: true, nc: 1, in: vectorIn,
				run: func(k k) error {
					x, err := grb.ReduceVectorToScalar(r.mon, k.U(s.u))
					return scalarOut(k, x, err)
				},
				mimic: func(k k) {
					ru := k.RU(s.u)
					x := ref.ReduceMatToScalar(r.mon, &ref.Mat[T]{NRows: 1, NCols: ru.N, Val: [][]T{ru.Val}, Set: [][]bool{ru.Set}})
					k.write(cells(1, 1, func(int, int) (T, bool) { return x, true }))
				}})
	}
	// Every tagged constructor beside its literal twin, over operands salted
	// with the extremes: mxm whichever kernel MxMAuto picks (the kernels'
	// twins are mxm_direction_test.go's), VxM and MxV in both directions.
	for _, tw := range taggedTwins[T]() {
		rows = append(rows,
			row[T]{name: "mxm/" + tw.name, in: binaryIn,
				run:   func(k k) error { return grb.MxM(k.c, k.m, k.accum, tw.tagged, k.A(s.xleft), k.B(s.xright), &k.d) },
				mimic: func(k k) { ref.MxM(k.rc, k.rm, k.accum, tw.literal, k.RA(s.xleft), k.RB(s.xright), k.rd()) }},
			product("vxm/push/"+tw.name, false, grb.DirPush, s.xa, s.xum, tw.tagged, &tw, false),
			product("vxm/pull/"+tw.name, false, grb.DirPull, s.xa, s.xum, tw.tagged, &tw, false),
			product("mxv/push/"+tw.name, true, grb.DirPush, s.xa, s.xu, tw.tagged, &tw, false),
			product("mxv/pull/"+tw.name, true, grb.DirPull, s.xa, s.xu, tw.tagged, &tw, false))
	}
	return rows
}

// vecForms is fs without the hypersparse form, which a vector has not.
func vecForms(fs []form) []form {
	return slices.DeleteFunc(slices.Clone(fs), func(f form) bool { return f == hypersparse })
}

// holdings is the forms r's cases cross, one axis each for the output, the
// mask and the operand pair: a vector is never hypersparse, an unmasked case
// has no mask to hold, and a binary row also meets one operand dense-held
// beside a standard one, either way round.
func (s *shape[T]) holdings(r row[T], masked bool) (outs, masks []form, pairs [][2]form) {
	outs, masks, ins := s.outForms, s.maskForms, s.inForms
	if r.vec {
		outs, masks = vecForms(outs), vecForms(masks)
	}
	if r.in == vectorIn || r.in == binaryIn && r.vec {
		ins = vecForms(ins)
	}
	if r.in == scalarIn {
		ins = ins[:1]
	}
	if !masked {
		masks = masks[:1]
	}
	for _, f := range ins {
		pairs = append(pairs, [2]form{f, f})
	}
	if r.in == binaryIn && slices.Contains(ins, denseHeld) && slices.Contains(ins, standard) {
		pairs = append(pairs, [2]form{denseHeld, standard}, [2]form{standard, denseHeld})
	}
	return outs, masks, pairs
}

// run drives every row s admits through s's part of the product.
func (s *shape[T]) run(t *testing.T) {
	bits := byValue
	if _, ok := any(*new(T)).(float64); ok {
		bits = byBits
	}
	for i, r := range table(s) {
		if s.rows == nil || s.rows(r.name) {
			// Each row draws from its own generator, so a case reproduces
			// under -run.
			rng := rand.New(rand.NewSource(s.seed*1000 + int64(i)))
			t.Run(r.name, func(t *testing.T) { s.runRow(t, r, rng, bits) })
		}
	}
}

func (s *shape[T]) runRow(t *testing.T, r row[T], rng *rand.Rand, bits bool) {
	nr, nc := cmp.Or(r.nr, s.m), cmp.Or(r.nc, s.n)
	if r.vec {
		nr = 1
	}
	maskFill := s.maskFill
	if maskFill == nil { // no fills: no masks
		maskFill = []float64{0}
	}
	for _, cf := range s.cFill {
		c0 := random(rng, nr, nc, cf, s.val)
		var w0 *grb.Vector[T]
		if r.vec {
			w0 = vecOf(c0)
		}
		for mi, mf := range maskFill {
			mask := random(rng, nr, nc, mf, coin)
			rmask, maskV, rmaskV := ref.FromMatrix(mask), (*grb.Vector[bool])(nil), (*ref.Vec[bool])(nil)
			if r.vec {
				maskV = vecOf(mask)
				rmaskV = ref.FromVector(maskV)
			}
			for _, wc := range writeCases() {
				if wc.useMask && s.maskFill == nil || !wc.useMask && mi > 0 {
					continue
				}
				for _, accum := range []grb.BinaryOp[T, T, T]{nil, grb.Plus[T]()} {
					for tr := 0; tr < 1<<r.tran; tr++ {
						for _, alias := range s.aliases {
							if alias != 0 && r.in == scalarIn || alias&aliasV != 0 && r.in != binaryIn {
								continue
							}
							d := wc.desc
							d.TranA, d.TranB = tr&1 != 0, tr&2 != 0
							base := kase[T]{s: s, d: d, accum: accum, alias: alias, w0: w0}
							m, mv := (*grb.Matrix[bool])(nil), (*grb.Vector[bool])(nil)
							if wc.useMask {
								base.rm, base.rmv, m, mv = rmask, rmaskV, mask, maskV
							}
							name := fmt.Sprintf("%s,accum=%v,tranA=%v,tranB=%v,alias=%d,fillC=%v,fillM=%v",
								wc.name, accum != nil, d.TranA, d.TranB, alias, cf, mf)
							s.runCase(t, name, r, base, c0, m, mv, bits)
						}
					}
				}
			}
		}
	}
}

// runCase checks one mimic result: the output form, mask form, operand forms
// and worker counts r crosses must each reproduce it. Each output and mask
// form is a subtest of t named after the case; mask and mv are nil for an
// unmasked case.
func (s *shape[T]) runCase(t *testing.T, name string, r row[T], base kase[T], c0 *grb.Matrix[T], mask *grb.Matrix[bool], mv *grb.Vector[bool], bits bool) {
	want := base
	want.t = t
	if r.vec {
		want.rw = ref.FromVector(base.w0)
	} else {
		want.rc = ref.FromMatrix(c0)
	}
	r.mimic(&want)
	var wantE entries[T]
	if r.vec {
		wantE = entriesOf[T](want.rw)
	} else {
		wantE = entriesOf[T](want.rc)
	}
	outs, masks, pairs := s.holdings(r, mask != nil)
	for _, out := range outs {
		for _, mf := range masks {
			t.Run(name+",C="+string(out)+",M="+string(mf), func(t *testing.T) {
				for _, in := range pairs {
					for _, p := range s.ps {
						// The case over fresh copies of the output and mask.
						k := &kase[T]{t: t, s: s, d: base.d, accum: base.accum, out: out, in: in, alias: base.alias, w0: base.w0}
						switch {
						case r.vec:
							k.w = held(base.w0, out)
							if mv != nil {
								k.mv = held(mv, mf)
							}
						default:
							k.c = held(c0, out)
							if mask != nil {
								k.m = held(mask, mf)
							}
						}
						prev := grb.SetParallelism(p)
						err := r.run(k)
						grb.SetParallelism(prev)
						label := fmt.Sprintf("A=%s,B=%s/P=%d", in[0], in[1], p)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						var got any = k.c
						if r.vec {
							got = k.w
							if dense, _ := k.w.Forms(); dense && out == standard && base.alias == 0 && k.w.Nvals()*8 < k.w.Size() {
								t.Fatalf("%s: %d of %d entries held densely, below the 12.5 %% bar", label, k.w.Nvals(), k.w.Size())
							}
						}
						mustMatch[T](t, label, got, wantE, bits)
						// A vector's image is its entries, so only a matrix can
						// serialize unlike its twin; and a hypersparse C that
						// nothing rebuilt keeps its layout, so only
						// content-picked forms compare bytes.
						if p == 1 && !r.vec && out != hypersparse {
							mustSerializeLikeTwin[T](t, label, got)
						}
					}
				}
			})
		}
	}
}

// TestConformanceTable runs the table over every shape.
func TestConformanceTable(t *testing.T) {
	rng := rand.New(rand.NewSource(1601))
	dim := func(lo, hi int) int { return lo + rng.Intn(hi-lo) }
	toy := newShape("toy", 1601, dim(4, 11), dim(4, 11), dim(4, 11), small)
	t.Run(toy.name, toy.run)
	// Over float64 the rows that fold several terms into one output, where
	// a form or worker count that met them in another order would show (the
	// tagged loops' float64 twins are TestTaggedTwinsChunkedVector's and
	// mxm_direction_test.go's).
	float := newShape("float64", 1602, dim(4, 13), dim(4, 13), dim(4, 13), normal)
	float.rows = func(name string) bool {
		folds := strings.HasPrefix(name, "mxm") || strings.HasPrefix(name, "vxm") || strings.HasPrefix(name, "mxv") || strings.HasPrefix(name, "reduce")
		return folds && !strings.Contains(name, ".")
	}
	t.Run(float.name, float.run)

	// The old format suite's parallel shape, at eight workers: float64 mxm
	// and vxm over every operand form.
	format := newShape("format-p8", 44, 40, 48, 44, normal)
	format.outForms, format.maskFill, format.ps = allForms[:1], nil, []int{8}
	format.rows = func(name string) bool { return name == "mxm" || name == "vxm" }
	t.Run(format.name, format.run)

	// Chunked at eight workers: a select whose predicates each meet rows
	// they keep whole, rows they drop and rows they keep in part, over a
	// standard and a hypersparse operand, ...
	sel := newShape("select-chunked", 1908, 320, 2, 300, small)
	sel.a = selectOperand(sel.rng)
	sel.outForms, sel.maskForms, sel.inForms = allForms[:1], allForms[:1], allForms[:2]
	sel.ps = []int{8}
	sel.rows = func(name string) bool { return strings.HasPrefix(name, "select") }
	t.Run(sel.name, sel.run)

	// ... the reductions, over 320×300 held compressed and dense with ~83k
	// entries: past seqFallbackWork, so eight workers cut the row reduce
	// into chunks, and five reduceChunkEntries chunks for the scalar one ...
	red := newShape("reduce-chunked", 1909, 320, 2, 300, small)
	red.a = random(red.rng, 320, 300, 2.0, small)
	red.outForms, red.maskForms, red.inForms = allForms[:1], allForms[:1], []form{standard, denseHeld}
	red.rows = func(name string) bool { return strings.HasPrefix(name, "reduce") }
	t.Run(red.name, red.run)

	// ... and extracts down the permuting route (an injective J) and the
	// sorting one (a repeated J), into an empty C with no mask.
	ext := newShape("extract-chunked", 71, 320, 2, 320, small)
	ext.a = random(ext.rng, 320, 320, 2.0, small)
	ext.big, ext.bigI, ext.bigJ = ext.a, ext.permI, ext.permJ
	ext.outForms, ext.maskForms, ext.inForms = allForms[:1], allForms[:1], allForms[:1]
	ext.cFill, ext.maskFill, ext.ps = []float64{0}, nil, []int{8}
	ext.rows = func(name string) bool { return name == "extract/perm" || name == "extract/dup-J" }
	t.Run(ext.name, ext.run)

	// An extract whose width dwarfs its work: 8×2048 holding 20 entries.
	wide := newShape("extract-wide", 72, 8, 2, 10, small)
	wide.big, wide.bigI, wide.bigJ = random(wide.rng, 8, 2048, 20.0/(8*2048), small), grb.All, uniqueIdx(wide.rng, 2048, 10)
	wide.rows = func(name string) bool { return name == "extract" }
	t.Run(wide.name, wide.run)

	// The dense result route across the fill bar that selects it: operands,
	// output and mask each below the promotion bar (thin), above it (half)
	// or full, sparse-held or dense-held.
	route := []string{"v/eWiseAdd", "v/eWiseMult", "v/eWiseUnion", "v/apply", "v/apply/index", "v/apply/bind1st", "v/apply/bind2nd",
		"v/select", "v/extract/all", "v/extract/dup", "v/assign", "v/assign/scalar", "mxv/pull"}
	fill := func(s *shape[int64], f string) *grb.Vector[int64] {
		if f == "full" {
			return fullVector[int64](s.n)
		}
		return vecOf(random(s.rng, 1, s.n, map[string]float64{"thin": 0.06, "half": 0.7}[f], small))
	}
	lanes := func(name string, seed int64, n int) *shape[int64] {
		s, sd := newShape(name, seed, n, n, n, small), []form{standard, denseHeld}
		s.a, s.outForms, s.maskForms, s.inForms, s.ps = random(s.rng, n, n, 0.2, small), sd, sd, sd, []int{1}
		return s
	}
	for i, uv := range [][2]string{{"thin", "thin"}, {"thin", "full"}, {"half", "half"}, {"full", "half"}, {"full", "full"}} {
		s := lanes("route/"+uv[0]+"-"+uv[1], 1701+10*int64(i), dim(48, 88))
		s.u, s.v = fill(s, uv[0]), fill(s, uv[1])
		s.cFill, s.maskFill = []float64{0, 0.06, 0.7}, []float64{0.05, 0.6}
		binaryOnly := uv[0] != uv[1]
		s.rows = func(name string) bool {
			return slices.Contains(route, name) && (!binaryOnly || strings.HasPrefix(name, "v/eWise"))
		}
		t.Run(s.name, s.run)
	}

	// The output is also an operand (FastSV's f = min(f, g)) or both: the
	// lanes an output gives up when it adopts a result go back to the pool,
	// so every read of them must come first.
	alias := lanes("alias", 1702, dim(40, 80))
	alias.u, alias.v = vecOf(random(alias.rng, 1, alias.n, 0.7, small)), vecOf(random(alias.rng, 1, alias.n, 0.7, small))
	alias.cFill, alias.aliases = []float64{0.06, 0.7}, []int{aliasU, aliasV, aliasU | aliasV}
	alias.rows = func(name string) bool { return slices.Contains(route, name) && name != "v/extract/dup" }
	t.Run(alias.name, alias.run)
}

// selectOperand is 320×300 with ~72k entries — past the threshold at which
// eight workers split the count and fill passes into chunks — laid out so
// that every predicate meets rows it keeps whole (a copy), rows it keeps
// nothing of (a skip; in hypersparse form they leave the row list) and rows
// it keeps in part: rows 0–99 hold positive values only, 100–199 negative
// ones, the rest both, and rows 40–49 are empty.
func selectOperand(rng *rand.Rand) *grb.Matrix[int64] {
	const m, n = 320, 300
	var is, js []int
	var xs []int64
	for i := 0; i < m; i++ {
		if i >= 40 && i < 50 {
			continue
		}
		for j := 0; j < n; j++ {
			if rng.Intn(4) == 0 {
				continue
			}
			x := int64(1 + rng.Intn(4))
			if (i >= 100 && i < 200) || (i >= 200 && rng.Intn(2) == 0) {
				x = -x
			}
			is, js, xs = append(is, i), append(js, j), append(xs, x)
		}
	}
	a := grb.MustMatrix[int64](m, n)
	if err := a.Build(is, js, xs, nil); err != nil {
		panic(err)
	}
	return a
}

// TestTableCoversMaskedOps: every exported operation that takes a write
// mask is called by a row of the table, or is exempt for the reason given.
func TestTableCoversMaskedOps(t *testing.T) {
	exempt := map[string]string{
		"MxMDirection": "reads a mask to pick a direction and writes nothing; it reports MxMAuto's choice, which mxm_direction_test.go holds to the cheaper estimate",
		"VxMDirection": "reads a mask to pick a direction and writes nothing; push_emission_test.go holds its choices",
	}
	rowed, masked := map[string]bool{}, map[string]bool{}
	names, _ := filepath.Glob("*.go") // a well-formed pattern
	for _, name := range names {
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			switch {
			case !ok:
			case name == "conformance_test.go" && fn.Name.Name == "table":
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					if sel, ok := n.(*ast.SelectorExpr); ok {
						if id, ok := sel.X.(*ast.Ident); ok && id.Name == "grb" {
							rowed[sel.Sel.Name] = true
						}
					}
					return true
				})
			case !strings.HasSuffix(name, "_test.go") && fn.Recv == nil && fn.Name.IsExported():
				for _, field := range fn.Type.Params.List {
					for _, p := range field.Names {
						masked[fn.Name.Name] = masked[fn.Name.Name] || p.Name == "mask"
					}
				}
			}
		}
	}
	for name, m := range masked {
		if m && !rowed[name] && exempt[name] == "" {
			t.Errorf("%s takes a write mask but is no row of the conformance table", name)
		}
	}
	for name := range exempt {
		if !masked[name] || rowed[name] {
			t.Errorf("the exemption of %s is stale: it takes no mask, or it is a row", name)
		}
	}
}

// twinned runs one product into w with tw.tagged and, from w's initial
// state, with tw.literal: both must leave the same bits by the same work.
// The tagged run's op record is returned.
func twinned[T grb.Number](t testing.TB, tw taggedTwin[T], w *grb.Vector[T], run func(w *grb.Vector[T], s grb.Semiring[T, T, T]) error) obs.OpRecord {
	t.Helper()
	traced := func(w *grb.Vector[T], s grb.Semiring[T, T, T]) obs.OpRecord {
		trace := obs.NewTrace(4)
		defer obs.Set(obs.Set(trace))
		if err := run(w, s); err != nil {
			t.Fatalf("%s: %v", tw.name, err)
		}
		ops := trace.Ops()
		return ops[len(ops)-1]
	}
	literal := w.Dup()
	lrec := traced(literal, tw.literal)
	rec := traced(w, tw.tagged)
	mustMatch[T](t, tw.name+" tagged vs literal", w, literal, byBits)
	if err := tw.sameWork(rec, lrec); err != nil {
		t.Fatalf("%s: %v", tw.name, err)
	}
	return rec
}
