package grb_test

// The two directions of a masked mxm against the dense mimic. Under a mask
// MxMAuto runs the cheaper of the saxpy kernels (push) and the dot kernels
// (pull) by the estimates the kernels themselves partition by, and the dot
// kernel scatters a row of A that is long against B's columns instead of
// searching it. None of that may change a bit: every product of one output
// is met in ascending inner index whichever kernel meets it. So each case
// here runs forced dot, forced Gustavson, forced heap and MxMAuto at 1 and
// 8 workers, compares all of them with the mimic bit for bit, and checks
// that the op record of the automatic run carries the smaller of the
// forced dot's and Gustavson's estimates under the policy "cost".

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"lagraph/internal/grb"
	"lagraph/internal/grb/ref"
	"lagraph/internal/obs"
)

// taggedTwin is a semiring the kernels run as visible arithmetic (the
// constructor tagged it; internal/grb/mono.go) beside its literal-built
// twin, which carries no tag and so runs the generic loops: the conformance
// twin of every tagged loop. name is what op records call the tagged one.
type taggedTwin[T comparable] struct {
	name            string
	tagged, literal grb.Semiring[T, T, T]
}

func taggedTwins[T grb.Number]() []taggedTwin[T] {
	type sr = grb.Semiring[T, T, T]
	plus, min := grb.PlusMonoid[T](), grb.MinMonoid[T]()
	return []taggedTwin[T]{
		{"plus.first", grb.PlusFirst[T](), sr{Add: plus, Mul: grb.First[T, T]()}},
		{"plus.second", grb.PlusSecond[T](), sr{Add: plus, Mul: grb.Second[T, T]()}},
		{"plus.pair", grb.PlusPair[T, T, T](), sr{Add: plus, Mul: grb.Pair[T, T, T]()}},
		{"min.first", grb.MinFirst[T](), sr{Add: min, Mul: grb.First[T, T]()}},
		{"min.second", grb.MinSecond[T](), sr{Add: min, Mul: grb.Second[T, T]()}},
		{"min.plus", grb.MinPlus[T](), sr{Add: min, Mul: grb.Plus[T]()}},
	}
}

// wantOps is the Ops an op record must carry after kernel multiplied by
// tw.tagged: the tag's name over float64 and int64, the element types the
// tagged loops exist for, nothing over any other or from the heap, which
// has no tagged loops.
func (tw taggedTwin[T]) wantOps(kernel string) string {
	switch any(*new(T)).(type) {
	case float64, int64:
		if kernel != "heap" {
			return tw.name
		}
	}
	return ""
}

// sameWork reports an error unless the tagged run and its twin's did the
// same work — kernel, policy, estimate, chunking, output, write route — and
// differ only in the operators they name: a tag changes what a product
// costs, never which products are made.
func (tw taggedTwin[T]) sameWork(tagged, literal obs.OpRecord) error {
	if want := tw.wantOps(tagged.Kernel); tagged.Ops != want || literal.Ops != "" {
		return fmt.Errorf("tagged ran operators %q (want %q), its literal twin %q (want none)", tagged.Ops, want, literal.Ops)
	}
	tagged.Ops, tagged.DurNanos, literal.DurNanos = "", 0, 0
	if tagged != literal {
		return fmt.Errorf("tagged run recorded %+v, its literal twin %+v", tagged, literal)
	}
	return nil
}

// dirCase is one masked product: c0⟨mask⟩ ⊙= a ⊕.⊗ b under d, the mask
// held in maskForm. With twin set, s is twin.tagged and every
// run is repeated with twin.literal, which must give the same bits by the
// same work.
type dirCase[T comparable] struct {
	s        grb.Semiring[T, T, T]
	twin     *taggedTwin[T]
	accum    grb.BinaryOp[T, T, T]
	a, b, c0 *grb.Matrix[T]
	mask     *grb.Matrix[bool]
	maskForm form
	d        grb.Descriptor
}

// check runs the case through every method at both worker counts and
// returns the op records of the eight-worker runs by method name.
func (tc dirCase[T]) check(t *testing.T, label string) map[string]obs.OpRecord {
	t.Helper()
	want := ref.FromMatrix(tc.c0)
	ref.MxM(want, ref.FromMatrix(tc.mask), tc.accum, tc.s, ref.FromMatrix(tc.a), ref.FromMatrix(tc.b), refDesc(tc.d))
	var auto string
	var recs map[string]obs.OpRecord
	for _, p := range []int{1, 8} {
		prev := grb.SetParallelism(p)
		recs = map[string]obs.OpRecord{}
		for _, m := range []struct {
			name   string
			method grb.MxMMethod
		}{{"dot", grb.MxMDot}, {"gustavson", grb.MxMGustavson}, {"heap", grb.MxMHeap}, {"auto", grb.MxMAuto}} {
			d := tc.d
			d.Method = m.method
			got := tc.c0.Dup()
			trace := obs.NewTrace(4)
			restore := obs.Set(trace)
			err := grb.MxM(got, held(tc.mask, tc.maskForm), tc.accum, tc.s, tc.a, tc.b, &d)
			obs.Set(restore)
			if err != nil {
				grb.SetParallelism(prev)
				t.Fatalf("%s %s P=%d: %v", label, m.name, p, err)
			}
			mustMatch[T](t, fmt.Sprintf("%s %s P=%d", label, m.name, p), got, want, byBits)
			mustSerializeLikeTwin[T](t, label, got)
			ops := trace.Ops()
			recs[m.name] = ops[len(ops)-1]
			if tc.twin != nil {
				lit := tc.c0.Dup()
				trace := obs.NewTrace(4)
				restore := obs.Set(trace)
				err := grb.MxM(lit, held(tc.mask, tc.maskForm), tc.accum, tc.twin.literal, tc.a, tc.b, &d)
				obs.Set(restore)
				if err != nil {
					grb.SetParallelism(prev)
					t.Fatalf("%s %s P=%d literal twin: %v", label, m.name, p, err)
				}
				mustMatch[T](t, fmt.Sprintf("%s %s P=%d literal twin", label, m.name, p), lit, want, byBits)
				ops := trace.Ops()
				if err := tc.twin.sameWork(recs[m.name], ops[len(ops)-1]); err != nil {
					grb.SetParallelism(prev)
					t.Fatalf("%s %s P=%d: %v", label, m.name, p, err)
				}
			}
		}
		grb.SetParallelism(prev)
		// The automatic run carries the smaller estimate, and a tie goes to
		// the push.
		rec, push, pull := recs["auto"], recs["gustavson"].EstFlops, recs["dot"].EstFlops
		gotPull := rec.Kernel == "dot"
		if rec.Policy != "cost" || rec.EstFlops != min(push, pull) || gotPull != (pull < push) {
			t.Fatalf("%s P=%d: auto ran %s under policy %q with estimate %d; forced dot estimates %d, forced gustavson %d",
				label, p, rec.Kernel, rec.Policy, rec.EstFlops, pull, push)
		}
		if auto != "" && auto != rec.Kernel {
			t.Fatalf("%s: auto ran %s at one worker and %s at eight", label, auto, rec.Kernel)
		}
		auto = rec.Kernel
	}
	return recs
}

// cancelling draws values whose float64 sums depend on their association:
// a large pair that cancels around small terms.
func cancelling(rng *rand.Rand) float64 {
	return []float64{1e16, -1e16, 1, 3, 0.1, -0.3, 7e-9}[rng.Intn(7)]
}

// operandShape returns the stored shape of an operand whose effective
// (post-transpose) shape is nr×nc.
func operandShape(nr, nc int, tran bool) (int, int) {
	if tran {
		return nc, nr
	}
	return nr, nc
}

// directionTable runs the descriptor table — polarity × held mask × Replace
// × accumulator × TranA × TranB, or polarity alone when full is unset — on
// operands of effective shape (m×k)·(k×n), handing each case's op records
// to visit. A non-nil twin (whose tagged semiring s then is) has every run
// repeated by its literal.
func directionTable[T comparable](t *testing.T, name string, rng *rand.Rand, m, k, n int, densA, densB, densM float64, full bool,
	s grb.Semiring[T, T, T], plus grb.BinaryOp[T, T, T], val func(*rand.Rand) T, visit func(label string, recs map[string]obs.OpRecord), twin *taggedTwin[T]) {
	bools := []bool{false, true}
	only := []bool{false}
	opt := func() []bool {
		if full {
			return bools
		}
		return only
	}
	for _, comp := range bools {
		for _, maskForm := range []form{standard, denseHeld}[:len(opt())] {
			for _, replace := range opt() {
				for _, withAccum := range opt() {
					for _, tranA := range opt() {
						for _, tranB := range opt() {
							ar, ac := operandShape(m, k, tranA)
							br, bc := operandShape(k, n, tranB)
							tc := dirCase[T]{
								s:        s,
								a:        random(rng, ar, ac, densA, val),
								b:        random(rng, br, bc, densB, val),
								c0:       random(rng, m, n, 0.2, val),
								mask:     random(rng, m, n, densM, coin),
								maskForm: maskForm,
								twin:     twin,
								d:        grb.Descriptor{Comp: comp, Replace: replace, TranA: tranA, TranB: tranB},
							}
							if withAccum {
								tc.accum = plus
							}
							label := fmt.Sprintf("%s comp=%v mask=%s replace=%v accum=%v tranA=%v tranB=%v", name, comp, maskForm, replace, withAccum, tranA, tranB)
							visit(label, tc.check(t, label))
						}
					}
				}
			}
		}
	}
}

func TestConformanceMxMDirections(t *testing.T) {
	plusTimes := grb.PlusTimes[float64]()
	minPlus := grb.MinPlus[float64]()
	lorLand := grb.LorLand()
	small := func(rng *rand.Rand) float64 { return float64(rng.Intn(9) - 4) }
	truth := func(rng *rand.Rand) bool { return rng.Intn(3) > 0 }

	// Small operands, the whole descriptor table. The mask is sparse against
	// a dense-ish A in one geometry and the reverse in the next, so each
	// direction wins somewhere under each polarity; B is under the dense
	// form's fill bar in the first two and over it in the third.
	t.Run("table", func(t *testing.T) {
		rng := rand.New(rand.NewSource(2001))
		used := map[string]int{}
		count := func(_ string, recs map[string]obs.OpRecord) { used[recs["auto"].Kernel]++ }
		for _, g := range []struct {
			name                string
			densA, densB, densM float64
		}{{"sparse-mask", 0.5, 0.08, 0.05}, {"dense-mask", 0.05, 0.08, 0.9}, {"bitmap-B", 0.5, 0.3, 0.05}} {
			directionTable(t, g.name+"/plus.times", rng, 14, 40, 18, g.densA, g.densB, g.densM, true, plusTimes, grb.Plus[float64](), cancelling, count, nil)
			directionTable(t, g.name+"/min.plus", rng, 14, 40, 18, g.densA, g.densB, g.densM, true, minPlus, grb.Plus[float64](), small, count, nil)
			directionTable(t, g.name+"/lor.land", rng, 14, 40, 18, g.densA, g.densB, g.densM, true, lorLand, grb.LOr(), truth, count, nil)
		}
		t.Logf("MxMAuto ran %v", used)
		if used["gustavson"] == 0 || used["dot"] == 0 {
			t.Fatalf("MxMAuto ran %v over the table: every kernel must win somewhere", used)
		}
	})

	// Every tagged constructor beside its literal-built twin, the whole
	// descriptor table each: plus.* over sums that depend on their order,
	// min.* over NaN, ±Inf and −0 (where `y < x` and the terminal exit must
	// agree with the closures) and over int64 down to MinInt64, the terminal
	// itself; then the int32 and uint8 instantiations, which have no tagged
	// loop and must say so.
	t.Run("tagged-twins", func(t *testing.T) {
		rng := rand.New(rand.NewSource(2007))
		nop := func(string, map[string]obs.OpRecord) {}
		special := func(rng *rand.Rand) float64 {
			return []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1, -2.5, 3}[rng.Intn(8)]
		}
		extreme := func(rng *rand.Rand) int64 {
			return []int64{math.MinInt64, math.MinInt64 + 1, math.MaxInt64, -1, 0, 1, 7}[rng.Intn(7)]
		}
		for _, tw := range taggedTwins[float64]() {
			val := cancelling
			if tw.name[:3] == "min" {
				val = special
			}
			directionTable(t, tw.name+"/float64", rng, 9, 24, 11, 0.4, 0.15, 0.4, true, tw.tagged, grb.Plus[float64](), val, nop, &tw)
		}
		for _, tw := range taggedTwins[int64]() {
			directionTable(t, tw.name+"/int64", rng, 9, 24, 11, 0.4, 0.15, 0.4, true, tw.tagged, grb.Plus[int64](), extreme, nop, &tw)
		}
		for _, tw := range taggedTwins[int32]() {
			directionTable(t, tw.name+"/int32", rng, 9, 24, 11, 0.4, 0.15, 0.4, false, tw.tagged, grb.Plus[int32](), func(rng *rand.Rand) int32 { return int32(rng.Intn(9) - 4) }, nop, &tw)
		}
		for _, tw := range taggedTwins[uint8]() {
			directionTable(t, tw.name+"/uint8", rng, 9, 24, 11, 0.4, 0.15, 0.4, false, tw.tagged, grb.Plus[uint8](), func(rng *rand.Rand) uint8 { return uint8(rng.Intn(9)) }, nop, &tw)
		}
	})

	// Enough estimated work that both directions are cut into chunks at
	// eight workers (seqFallbackWork = 1<<16), over rows of A (≈ 115 entries)
	// far beyond the scatter bar of B's ≈ 5-entry columns: each chunk draws
	// and returns a lane of its own.
	t.Run("chunked", func(t *testing.T) {
		rng := rand.New(rand.NewSource(2002))
		chunked := func(label string, recs map[string]obs.OpRecord) {
			if recs["dot"].Kernel != "dot" || recs["dot"].Chunks < 2 || recs["gustavson"].Chunks < 2 {
				t.Fatalf("%s: %s in %d chunks, gustavson in %d; want the compressed dot and both chunked",
					label, recs["dot"].Kernel, recs["dot"].Chunks, recs["gustavson"].Chunks)
			}
		}
		directionTable(t, "plus.times", rng, 96, 256, 512, 0.6, 0.02, 0.3, false, plusTimes, grb.Plus[float64](), cancelling, chunked, nil)
		directionTable(t, "lor.land", rng, 96, 256, 512, 0.6, 0.02, 0.3, false, lorLand, grb.LOr(), truth, chunked, nil)
		for _, tw := range taggedTwins[float64]() {
			directionTable(t, tw.name, rng, 96, 256, 512, 0.6, 0.02, 0.3, false, tw.tagged, grb.Plus[float64](), cancelling, chunked, &tw)
		}
	})

	// Rows of A on either side of the scatter bar. Every column of B holds
	// exactly 4 entries, so the bar (dotScatterRatio = 8 average columns)
	// sits between 32 and 33 entries; the rows of A hold 0, 1, 31, 32, 33,
	// 34 and all 64.
	t.Run("scatter-bar", func(t *testing.T) {
		rng := rand.New(rand.NewSource(2003))
		const inner, n = 64, 40
		if grb.DotScatters(32, 4*n, n, inner) || !grb.DotScatters(33, 4*n, n, inner) {
			t.Fatal("the scatter bar is not between 32 and 33 entries against 4-entry columns")
		}
		lens := []int{0, 1, 31, 32, 33, 34, inner}
		a := grb.MustMatrix[float64](len(lens), inner)
		for i, l := range lens {
			for _, j := range rng.Perm(inner)[:l] {
				_ = a.SetElement(i, j, cancelling(rng))
			}
		}
		a.Wait()
		b := grb.MustMatrix[float64](inner, n)
		for j := 0; j < n; j++ {
			for _, i := range rng.Perm(inner)[:4] {
				_ = b.SetElement(i, j, cancelling(rng))
			}
		}
		b.Wait()
		for _, comp := range []bool{false, true} {
			tc := dirCase[float64]{s: plusTimes, a: a, b: b, c0: grb.MustMatrix[float64](len(lens), n),
				mask: random(rng, len(lens), n, 0.5, coin), d: grb.Descriptor{Comp: comp}}
			tc.check(t, fmt.Sprintf("comp=%v", comp))
		}
	})

	// An inner dimension past the hypersparse bar (1<<15) still scatters a
	// long row, as pullRowCost prices it; the lane closes only past the
	// dense-form cap. Rows of A hold ≈ 160 entries of 1<<15 (≈ 320 of
	// 1<<16) against B's ≈ 16-entry columns, far past the scatter bar.
	t.Run("lane-past-hypersparse-inner", func(t *testing.T) {
		rng := rand.New(rand.NewSource(2004))
		const m, n = 5, 6
		if !grb.DotScatters(grb.BitmapMaxCells, 1, n, grb.BitmapMaxCells) || grb.DotScatters(grb.BitmapMaxCells+1, 1, n, grb.BitmapMaxCells+1) {
			t.Fatal("the scatter bar must close just past an inner dimension of BitmapMaxCells")
		}
		for _, inner := range []int{1 << 15, 1 << 16} {
			a := random(rng, m, inner, 160.0/float64(inner), cancelling)
			b := random(rng, inner, n, 16.0/float64(inner), cancelling)
			for i := range m {
				if row, _ := a.RowIndices(i); !grb.DotScatters(len(row), b.Nvals(), n, inner) {
					t.Fatalf("inner=%d: row %d of %d entries does not scatter", inner, i, len(row))
				}
			}
			for _, comp := range []bool{false, true} {
				tc := dirCase[float64]{s: plusTimes, a: a, b: b, c0: random(rng, m, n, 0.3, cancelling),
					mask: random(rng, m, n, 0.5, coin), d: grb.Descriptor{Comp: comp, Replace: true}}
				if recs := tc.check(t, fmt.Sprintf("inner=%d comp=%v", inner, comp)); recs["dot"].Kernel != "dot" {
					t.Fatalf("inner=%d: the dot method ran %q", inner, recs["dot"].Kernel)
				}
			}
		}
	})

	// Mask rows that admit nothing, and an A with no stored row at all.
	t.Run("empty", func(t *testing.T) {
		rng := rand.New(rand.NewSource(2005))
		const m, k, n = 12, 30, 16
		mask := random(rng, m, n, 0.4, coin)
		for i := 0; i < m; i += 2 {
			for j := 0; j < n; j++ {
				_ = mask.RemoveElement(i, j)
			}
		}
		mask.Wait()
		b := random(rng, k, n, 0.3, cancelling)
		for _, comp := range []bool{false, true} {
			for _, a := range []*grb.Matrix[float64]{random(rng, m, k, 0.4, cancelling), grb.MustMatrix[float64](m, k)} {
				tc := dirCase[float64]{s: plusTimes, accum: grb.Plus[float64](), a: a, b: b, c0: random(rng, m, n, 0.3, cancelling),
					mask: mask, d: grb.Descriptor{Comp: comp}}
				tc.check(t, fmt.Sprintf("comp=%v nvals(A)=%d", comp, a.Nvals()))
			}
		}
	})
}

// TestMxMPricingIsBoundedByThePush: a push at or under the floor of the
// pull — the column positions the mask makes a dot kernel visit — is taken
// without pricing the pull, so a small frontier under a complemented,
// dense-held `visited` mask never sweeps it; a frontier whose push exceeds
// the floor pays for the sweep and may pull.
func TestMxMPricingIsBoundedByThePush(t *testing.T) {
	const side = 48
	n := side * side
	lattice := grb.MustMatrix[float64](n, n)
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			v := r*side + c
			if c+1 < side {
				_ = lattice.SetElement(v, v+1, 1)
				_ = lattice.SetElement(v+1, v, 1)
			}
			if r+1 < side {
				_ = lattice.SetElement(v, v+side, 1)
				_ = lattice.SetElement(v+side, v, 1)
			}
		}
	}
	lattice.Wait()
	visited := grb.MustMatrix[bool](1, n)
	for v := 0; v < n/2; v++ {
		_ = visited.SetElement(0, v, true)
	}
	visited.Wait()
	if !visited.Hold("dense") {
		t.Fatal("mask beyond the dense cap")
	}
	frontier := func(width int) *grb.Matrix[float64] {
		f := grb.MustMatrix[float64](1, n)
		for v := n / 2; v < n/2+width; v++ {
			_ = f.SetElement(0, v, 1)
		}
		f.Wait()
		return f
	}
	// 48 entries of degree ≤ 4: the push is under 5·48+1, the floor is n+49.
	if pull, priced := grb.MxMPricing(visited, frontier(side), lattice, grb.DescRC); pull || priced {
		t.Fatalf("a %d-entry frontier under a complemented mask: pull %v, priced %v; want a push taken unpriced", side, pull, priced)
	}
	// Half the lattice: the push (≈ 5·n/2) exceeds the floor (n/2 + n), and
	// the pull — n visits, n/2 entries, the 4-entry columns of the unvisited
	// half — costs more than that push.
	if pull, priced := grb.MxMPricing(visited, frontier(n/2), lattice, grb.DescRC); pull || !priced {
		t.Fatalf("a %d-entry frontier under a complemented mask: pull %v, priced %v; want a priced push", n/2, pull, priced)
	}
	// Under the positive mask of a backward step the floor is the mask row.
	if pull, priced := grb.MxMPricing(visited, frontier(1), lattice, grb.DescR); pull || priced {
		t.Fatalf("a 1-entry frontier under a %d-entry positive mask: pull %v, priced %v; want a push taken unpriced", n/2, pull, priced)
	}
	one := grb.MustMatrix[bool](1, n)
	_ = one.SetElement(0, n/2+side, true)
	one.Wait()
	if pull, priced := grb.MxMPricing(one, frontier(n/2), lattice, grb.DescR); !pull || !priced {
		t.Fatalf("a %d-entry frontier under a 1-entry positive mask: pull %v, priced %v; want a priced pull", n/2, pull, priced)
	}
}

// runDirectionProgram interprets prog as one masked product — shapes,
// operands, mask, descriptor, semiring — and runs it through the three
// forced kernels and MxMAuto against the mimic. Besides plus.times and
// min.plus, a semiring is a tagged constructor beside its literal twin, or
// one by ANY: literal AnySecond, or tagged AnyFirst beside its twin, which
// every kernel must leave with the product of smallest inner index.
func runDirectionProgram(t *testing.T, prog []byte) {
	t.Helper()
	r := &progReader{b: prog}
	m, k, n := 1+r.next()%10, 1+r.next()%20, 1+r.next()%10
	flags := r.next()
	d := grb.Descriptor{Comp: flags&1 != 0, Replace: flags&2 != 0, TranA: flags&4 != 0, TranB: flags&8 != 0, MaskValue: flags&16 != 0}
	withAccum, maskForm := flags&32 != 0, standard
	if flags&64 != 0 {
		maskForm = denseHeld
	}
	ar, ac := operandShape(m, k, d.TranA)
	br, bc := operandShape(k, n, d.TranB)
	draw := func(nr, nc int, set func(i, j, v int)) {
		for cnt := r.next() % (nr*nc + 1); cnt > 0; cnt-- {
			set(r.next()%nr, r.next()%nc, r.next())
		}
	}
	mask := grb.MustMatrix[bool](m, n)
	draw(m, n, func(i, j, v int) { _ = mask.SetElement(i, j, v%3 > 0) })
	mask.Wait()
	label := fmt.Sprintf("%d×%d×%d %+v accum=%v mask=%s", m, k, n, d, withAccum, maskForm)
	if flags&128 != 0 {
		a, b, c0 := grb.MustMatrix[bool](ar, ac), grb.MustMatrix[bool](br, bc), grb.MustMatrix[bool](m, n)
		draw(ar, ac, func(i, j, v int) { _ = a.SetElement(i, j, v%3 > 0) })
		draw(br, bc, func(i, j, v int) { _ = b.SetElement(i, j, v%3 > 0) })
		draw(m, n, func(i, j, v int) { _ = c0.SetElement(i, j, v%2 > 0) })
		tc := dirCase[bool]{s: grb.LorLand(), a: a, b: b, c0: c0, mask: mask, maskForm: maskForm, d: d}
		if withAccum {
			tc.accum = grb.LOr()
		}
		tc.check(t, label)
		return
	}
	vals := []float64{1e16, -1e16, 1, 3, 0.1, -0.3, 7e-9}
	a, b, c0 := grb.MustMatrix[float64](ar, ac), grb.MustMatrix[float64](br, bc), grb.MustMatrix[float64](m, n)
	draw(ar, ac, func(i, j, v int) { _ = a.SetElement(i, j, vals[v%7]) })
	draw(br, bc, func(i, j, v int) { _ = b.SetElement(i, j, vals[v%7]) })
	draw(m, n, func(i, j, v int) { _ = c0.SetElement(i, j, vals[v%7]) })
	tc := dirCase[float64]{s: grb.PlusTimes[float64](), a: a, b: b, c0: c0, mask: mask, maskForm: maskForm, d: d}
	if r.next()%2 == 1 {
		tc.s = grb.MinPlus[float64]()
	}
	twins := append(taggedTwins[float64](), taggedTwin[float64]{"any.first", grb.AnyFirst[float64](),
		grb.Semiring[float64, float64, float64]{Add: grb.AnyMonoid[float64](), Mul: grb.First[float64, float64]()}})
	switch pick := r.next() % 10; {
	case pick == 2:
		tc.s = grb.AnySecond[float64]()
	case pick >= 3:
		tw := twins[pick-3]
		tc.s, tc.twin = tw.tagged, &tw
	}
	if withAccum {
		tc.accum = grb.Plus[float64]()
	}
	tc.check(t, label)
}

func FuzzMxMDirection(f *testing.F) {
	f.Add([]byte{5, 12, 6, 0, 9, 0, 0, 1, 1, 1, 2, 2, 40, 0, 0, 3, 1, 1, 0, 2, 2, 5, 11, 0, 1, 2, 1, 3, 4, 2, 5, 1, 0, 0, 1})
	f.Add([]byte{8, 19, 9, 1 | 2 | 32, 30, 0, 0, 1, 1, 1, 2, 2, 2, 0, 3, 1, 4, 4, 2, 60, 1, 1, 0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{3, 7, 4, 4 | 8 | 64, 5, 0, 0, 1, 1, 1, 2, 2, 2, 0, 15, 1, 2, 3, 4, 5, 6, 0, 1, 2, 0, 1, 2, 6, 6, 6, 6, 2, 2, 2, 1})
	f.Add([]byte{9, 4, 9, 128 | 1 | 16, 70, 1, 2, 3, 4, 5, 6, 7, 8, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 30, 1, 1})
	// A 1×3 by 3×1 product by AnySecond under a one-entry mask: the right
	// operand holds 1, 3 and 0.1 down its column, and every kernel reads 1.
	f.Add([]byte{0, 2, 0, 0, 1, 0, 0, 1, 3, 0, 0, 2, 0, 1, 2, 0, 2, 3, 3, 0, 0, 2, 1, 0, 3, 2, 0, 4, 0, 0, 2})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 1024 {
			return
		}
		runDirectionProgram(t, prog)
	})
}

// TestMxMDirectionProgramsVsMimic runs seeded random products through the
// fuzz interpreter on every `go test`.
func TestMxMDirectionProgramsVsMimic(t *testing.T) {
	rng := rand.New(rand.NewSource(2006))
	for trial := 0; trial < 300; trial++ {
		prog := make([]byte, 60+rng.Intn(400))
		rng.Read(prog)
		runDirectionProgram(t, prog)
	}
}
