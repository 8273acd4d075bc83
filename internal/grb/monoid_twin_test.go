package grb_test

// The reductions' tagged loops (mono.go, Monoid.fold) against the generic
// loop they replace: every built-in monoid beside its composite-literal
// twin, which carries the same operator, identity and terminal but no tag.
// Then the traversal semirings' loops (lorFirst, anyFirst) beside theirs,
// and min.second's over a matrix of another type than the labels it carries.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"lagraph/internal/grb"
	"lagraph/internal/obs"
)

// literalMonoid is m rebuilt as a composite literal: the generic loop runs
// it, calling Op and Terminal per entry.
func literalMonoid[T any](m grb.Monoid[T]) grb.Monoid[T] {
	return grb.Monoid[T]{Op: m.Op, Identity: m.Identity, Terminal: m.Terminal}
}

// TestTimesMonoidTerminal: 0 is TIMES's terminal value over integers and
// not over floats (0·Inf is NaN). An int64 reduction that meets a 0 mid-run
// stops there — its literal twin, counting its operator calls, makes none
// past the 0 — and both return 0.
func TestTimesMonoidTerminal(t *testing.T) {
	if m := grb.TimesMonoid[int64](); m.Terminal == nil || !m.Terminal(0) || m.Terminal(1) {
		t.Fatal("TimesMonoid[int64] does not have 0, and only 0, as its terminal value")
	}
	if grb.TimesMonoid[float64]().Terminal != nil {
		t.Fatal("TimesMonoid[float64] has a terminal value")
	}
	const n, zeroAt = 1000, 400
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(2*(i%3) + 1) // odd: a wrapped product of odd factors is never 0
	}
	xs[zeroAt] = 0
	u := grb.DenseVector(xs)
	calls := 0
	lit := literalMonoid(grb.TimesMonoid[int64]())
	op := lit.Op
	lit.Op = func(x, y int64) int64 { calls++; return op(x, y) }
	tagged, err := grb.ReduceVectorToScalar(grb.TimesMonoid[int64](), u)
	if err != nil {
		t.Fatal(err)
	}
	literal, err := grb.ReduceVectorToScalar(lit, u)
	if err != nil {
		t.Fatal(err)
	}
	if tagged != 0 || literal != 0 {
		t.Fatalf("times over a run holding a 0: tagged %d, literal %d", tagged, literal)
	}
	// The first entry starts the fold, so entries 1 to zeroAt take one
	// operator call each.
	if calls != zeroAt {
		t.Fatalf("the literal twin called its operator %d times, want %d: the run did not stop at the 0", calls, zeroAt)
	}
}

// TestAnyFoldKeepsFirstEntry: a reduction by ANY of a non-empty object is
// its first stored entry, never the identity, held compressed or dense.
func TestAnyFoldKeepsFirstEntry(t *testing.T) {
	anyMon := grb.AnyMonoid[int64]()
	u := grb.MustVector[int64](6)
	_ = u.SetElement(1, 7)
	_ = u.SetElement(3, 9)
	u.Wait()
	a := grb.MustMatrix[int64](3, 4)
	_ = a.SetElement(1, 2, 5)
	_ = a.SetElement(1, 3, 6)
	_ = a.SetElement(2, 0, 8)
	a.Wait()
	for _, f := range []form{standard, denseHeld} {
		if x, err := grb.ReduceVectorToScalar(anyMon, held(u, f)); err != nil || x != 7 {
			t.Fatalf("%s vector {1:7, 3:9} reduces by any to %d, %v; want 7", f, x, err)
		}
		if x, err := grb.ReduceMatrixToScalar(anyMon, held(a, f)); err != nil || x != 5 {
			t.Fatalf("%s matrix reduces by any to %d, %v; want 5", f, x, err)
		}
		w := grb.MustVector[int64](3)
		if err := grb.ReduceMatrixToVector[int64, bool](w, nil, nil, anyMon, held(a, f), nil); err != nil {
			t.Fatal(err)
		}
		mustMatch[int64](t, string(f)+" rows by any", w, entries[int64]{1, 3, []int{0, 0}, []int{1, 2}, []int64{5, 8}}, byValue)
	}
	if x, err := grb.ReduceVectorToScalar(anyMon, grb.MustVector[int64](6)); err != nil || x != 0 {
		t.Fatalf("an empty vector reduces by any to %d, %v; want the identity", x, err)
	}
}

// monoidTwin is one tagged monoid under test: draw yields a run's ordinary
// entries; term, if any, holds the terminal values placed mid-run.
type monoidTwin[T comparable] struct {
	name string
	mon  grb.Monoid[T]
	draw func(*rand.Rand) T
	term []T
}

// TestTaggedMonoidTwins: every tagged monoid agrees bit for bit with its
// literal twin in the three reductions — a vector held sparse, dense and
// full; a matrix at one worker and chunked at eight; a matrix's rows and
// (DescT0) columns — over −0, NaN, ±Inf and int64's extremes, with a
// terminal value mid-run.
func TestTaggedMonoidTwins(t *testing.T) {
	specialF := []float64{math.Copysign(0, -1), 0, math.NaN(), math.Inf(1), math.Inf(-1), 1, -2.5, 3, 1e16, -1e16, 0.1}
	specialI := []int64{math.MinInt64, math.MaxInt64, 0, 1, -1, 2, 3, -7}
	pick := func(xs []float64) func(*rand.Rand) float64 {
		return func(rng *rand.Rand) float64 { return xs[rng.Intn(len(xs))] }
	}
	pickI := func(xs []int64) func(*rand.Rand) int64 {
		return func(rng *rand.Rand) int64 { return xs[rng.Intn(len(xs))] }
	}
	// Times draws mostly ±1 so that a run reaches its planted terminal.
	nearOneF := append([]float64{1, 1, 1, -1, 0.5, 2}, specialF...)
	nearOneI := []int64{1, 1, 1, 1, -1, -1, 3, math.MaxInt64}
	// Min and max also run over values whose extreme is a signed zero, so
	// that a tie between −0 and 0 decides the result.
	zerosUp := []float64{math.Copysign(0, -1), 0, 1, math.NaN(), math.Inf(1)}
	zerosDown := []float64{math.Copysign(0, -1), 0, -1, math.NaN(), math.Inf(-1)}
	runTwins(t, []monoidTwin[float64]{
		{"plus", grb.PlusMonoid[float64](), pick(specialF), nil},
		{"times", grb.TimesMonoid[float64](), pick(nearOneF), nil},
		{"min", grb.MinMonoid[float64](), pick(specialF), []float64{math.Inf(-1)}},
		{"max", grb.MaxMonoid[float64](), pick(specialF), []float64{math.Inf(1)}},
		{"min/zeros", grb.MinMonoid[float64](), pick(zerosUp), nil},
		{"max/zeros", grb.MaxMonoid[float64](), pick(zerosDown[:4]), nil},
	})
	runTwins(t, []monoidTwin[int64]{
		{"plus", grb.PlusMonoid[int64](), pickI(specialI), nil},
		{"times", grb.TimesMonoid[int64](), pickI(nearOneI), []int64{0}},
		{"min", grb.MinMonoid[int64](), pickI(specialI[1:]), []int64{math.MinInt64}},
		{"max", grb.MaxMonoid[int64](), pickI(append([]int64{math.MinInt64}, specialI[2:]...)), []int64{math.MaxInt64}},
	})
	runTwins(t, []monoidTwin[bool]{
		{"lor", grb.LOrMonoid(), func(rng *rand.Rand) bool { return rng.Intn(200) == 0 }, []bool{true}},
		{"land", grb.LAndMonoid(), func(rng *rand.Rand) bool { return rng.Intn(200) != 0 }, []bool{false}},
	})
}

func runTwins[T comparable](t *testing.T, twins []monoidTwin[T]) {
	const n, nr, nc = 4096, 48, 1024 // nr·nc·0.9 entries: three reduction chunks
	for k, tw := range twins {
		name := fmt.Sprintf("%T/%s", *new(T), tw.name)
		lit := literalMonoid(tw.mon)
		rng := rand.New(rand.NewSource(3500 + int64(k)))
		plant := func(set func(pos int, x T), at ...int) {
			for t, x := range tw.term {
				for _, p := range at {
					set(p+t, x)
				}
			}
		}
		sparse, dense, full := grb.MustVector[T](n), grb.MustVector[T](n), make([]T, n)
		for i := range full {
			full[i] = tw.draw(rng)
			if rng.Intn(16) == 0 {
				_ = sparse.SetElement(i, full[i])
			}
			if rng.Intn(4) != 0 {
				_ = dense.SetElement(i, full[i])
			}
		}
		for _, v := range []*grb.Vector[T]{sparse, dense} {
			plant(func(p int, x T) { _ = v.SetElement(p, x) }, n/2)
		}
		plant(func(p int, x T) { full[p] = x }, n/2)
		sparse.Wait()
		if !dense.Hold("dense") {
			t.Fatal("the dense vector is beyond the dense cap")
		}
		if d, _ := sparse.Forms(); d {
			t.Fatalf("%s: the sparse vector is dense-held", name)
		}
		for _, u := range []*grb.Vector[T]{sparse, dense, grb.DenseVector(full)} {
			got, err := grb.ReduceVectorToScalar(tw.mon, u)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := grb.ReduceVectorToScalar(lit, u)
			if !same(got, want, byBits) {
				t.Fatalf("%s: vector of %d entries reduces to %v tagged, %v literal", name, u.Nvals(), got, want)
			}
		}

		a := grb.MustMatrix[T](nr, nc)
		for i := 0; i < nr; i++ {
			for j := 0; j < nc; j++ {
				if rng.Intn(10) != 0 {
					_ = a.SetElement(i, j, tw.draw(rng))
				}
			}
		}
		// Terminal values mid-row, mid-column and in the middle chunk.
		plant(func(p int, x T) { _ = a.SetElement(nr/2, p, x) }, nc/2)
		plant(func(p int, x T) { _ = a.SetElement(p, nc/2+1, x) }, nr/2+1)
		a.Wait()
		var scalars [2]T
		for q, p := range []int{1, 8} {
			func() {
				defer grb.SetParallelism(grb.SetParallelism(p))
				got, err := grb.ReduceMatrixToScalar(tw.mon, a)
				if err != nil {
					t.Fatal(err)
				}
				want, _ := grb.ReduceMatrixToScalar(lit, a)
				if !same(got, want, byBits) {
					t.Fatalf("%s: matrix reduces to %v tagged, %v literal at P=%d", name, got, want, p)
				}
				scalars[q] = got
				for _, d := range []*grb.Descriptor{nil, grb.DescT0} {
					size := nr
					if d != nil {
						size = nc
					}
					got, want := grb.MustVector[T](size), grb.MustVector[T](size)
					if err := grb.ReduceMatrixToVector[T, bool](got, nil, nil, tw.mon, a, d); err != nil {
						t.Fatal(err)
					}
					if err := grb.ReduceMatrixToVector[T, bool](want, nil, nil, lit, a, d); err != nil {
						t.Fatal(err)
					}
					gi, gx := got.ExtractTuples()
					wi, wx := want.ExtractTuples()
					if len(gi) != len(wi) {
						t.Fatalf("%s: %d rows reduced tagged, %d literal", name, len(gi), len(wi))
					}
					for e := range gi {
						if gi[e] != wi[e] || !same(gx[e], wx[e], byBits) {
							t.Fatalf("%s (DescT0 %v, P=%d): row %d reduces to %v tagged, %v literal", name, d != nil, p, wi[e], gx[e], wx[e])
						}
					}
				}
			}()
		}
		if !same(scalars[0], scalars[1], byBits) {
			t.Fatalf("%s: matrix reduces to %v at one worker, %v at eight", name, scalars[0], scalars[1])
		}
	}
}

// traversalTwin is a traversal semiring beside its literal-built twin, the
// same monoid and first with no tag; draw yields frontier values.
type traversalTwin[E comparable] struct {
	name            string
	tagged, literal grb.Semiring[E, float64, E]
	draw            func(*rand.Rand) E
}

// TestTraversalSemiringTwins: lor.first and any.first agree bit for bit
// with their literal twins, at one worker and at eight, on the paths a
// traversal takes — a push whose frontier is cut into chunks and folded in
// chunk order; a pull under a complemented mask held compressed and held
// dense; the masked mxm's mask-first (marked) rows, and its complemented
// rows in both directions. lor's frontier holds false values too, so its
// loops fold past a non-terminal product; any's holds distinct ones, so
// keeping the first product and keeping the last differ. The op records
// say the tagged run took the loops and the twin the closures.
func TestTraversalSemiringTwins(t *testing.T) {
	runTraversalTwin(t, traversalTwin[bool]{"lor.first", grb.LOrFirst[float64](),
		grb.Semiring[bool, float64, bool]{Add: grb.LOrMonoid(), Mul: grb.First[bool, float64]()},
		func(rng *rand.Rand) bool { return rng.Intn(4) == 0 }})
	runTraversalTwin(t, traversalTwin[int64]{"any.first", grb.AnyFirstOf[int64, float64](),
		grb.Semiring[int64, float64, int64]{Add: grb.AnyMonoid[int64](), Mul: grb.First[int64, float64]()},
		func(rng *rand.Rand) int64 { return rng.Int63() }})
}

func runTraversalTwin[E comparable](t *testing.T, tw traversalTwin[E]) {
	const m, n, deg = 400, 2000, 200 // m·deg products: past pushWorkQuantum
	rng := rand.New(rand.NewSource(4700))
	a := grb.MustMatrix[float64](m, n)
	for i := 0; i < m; i++ {
		for _, j := range rng.Perm(n)[:deg] {
			_ = a.SetElement(i, j, 1)
		}
	}
	u := grb.MustVector[E](m)
	for i := 0; i < m; i++ {
		_ = u.SetElement(i, tw.draw(rng))
	}
	f := grb.MustMatrix[E](8, m) // eight frontiers of twenty
	for s := 0; s < 8; s++ {
		for _, i := range rng.Perm(m)[:20] {
			_ = f.SetElement(s, i, tw.draw(rng))
		}
	}
	mask := grb.MustVector[bool](n) // n/16 entries: compressed
	for _, j := range rng.Perm(n)[:n/16] {
		_ = mask.SetElement(j, true)
	}
	mm := grb.MustMatrix[bool](8, n) // rows of eight: the marked route
	for s := 0; s < 8; s++ {
		for _, j := range rng.Perm(n)[:8] {
			_ = mm.SetElement(s, j, true)
		}
	}
	a.Wait()
	u.Wait()
	f.Wait()
	mask.Wait()
	mm.Wait()
	if d, _ := mask.Forms(); d {
		t.Fatal("the sparse mask is dense-held")
	}

	// run returns the product each twin gives, checking that the two agree
	// and that their op records name the loops each took.
	run := func(label string, product func(s grb.Semiring[E, float64, E]) any) any {
		trace := obs.NewTrace(4)
		restore := obs.Set(trace)
		got := product(tw.tagged)
		want := product(tw.literal)
		obs.Set(restore)
		mustMatch[E](t, tw.name+" "+label, got, want, byBits)
		ops := trace.Ops()
		if len(ops) != 2 || ops[0].Ops != tw.name || ops[1].Ops != "" {
			t.Fatalf("%s %s: op records %+v, want the loops' %q then the closures'", tw.name, label, ops, tw.name)
		}
		if label == "push" && ops[0].Chunks < 2 {
			t.Fatalf("%s push ran in %d chunk(s): nothing was folded", tw.name, ops[0].Chunks)
		}
		return got
	}
	vxm := func(mask *grb.Vector[bool], dir grb.Direction) func(grb.Semiring[E, float64, E]) any {
		return func(s grb.Semiring[E, float64, E]) any {
			w := grb.MustVector[E](n)
			if err := grb.VxM(w, mask, nil, s, u, a, &grb.Descriptor{Replace: true, Comp: mask != nil, Dir: dir}); err != nil {
				t.Fatal(err)
			}
			return w
		}
	}
	mxm := func(d grb.Descriptor) func(grb.Semiring[E, float64, E]) any {
		return func(s grb.Semiring[E, float64, E]) any {
			c := grb.MustMatrix[E](8, n)
			if err := grb.MxM(c, mm, nil, s, f, a, &d); err != nil {
				t.Fatal(err)
			}
			return c
		}
	}
	cases := []struct {
		label   string
		product func(grb.Semiring[E, float64, E]) any
	}{
		{"push", vxm(nil, grb.DirPush)},
		{"pull/¬compressed", vxm(mask, grb.DirPull)},
		{"pull/¬dense", vxm(held(mask, denseHeld), grb.DirPull)},
		{"mxm/marked", mxm(grb.Descriptor{Method: grb.MxMGustavson})},
		{"mxm/¬gustavson", mxm(grb.Descriptor{Comp: true, Method: grb.MxMGustavson})},
		{"mxm/¬dot", mxm(grb.Descriptor{Comp: true, Method: grb.MxMDot})},
	}
	for _, tc := range cases {
		var first any
		for _, p := range []int{1, 8} {
			atParallelism(p, func() {
				got := run(fmt.Sprintf("%s P=%d", tc.label, p), tc.product)
				if first == nil {
					first = got
				} else {
					mustMatch[E](t, fmt.Sprintf("%s %s at P=8 against P=1", tw.name, tc.label), got, first, byBits)
				}
			})
		}
	}
}

// TestMinSecondOfTwin: min.second over a float64 A and int64 labels, the
// product FastSV takes, agrees bit for bit with its literal twin under MxV,
// pulled and pushed, at one worker and at eight. The push's frontier is
// every label, A's 80 000 products, so it is cut into chunks and folded;
// one label is int64's least value, min's terminal, so the loops stop
// folding into the rows that meet it. The tagged run's loops ignore A's
// values while its twin's closures are handed them; the op records say
// which took which.
func TestMinSecondOfTwin(t *testing.T) {
	const m, n, deg = 400, 2000, 200 // m·deg products: past pushWorkQuantum
	rng := rand.New(rand.NewSource(5200))
	a := grb.MustMatrix[float64](m, n)
	for i := 0; i < m; i++ {
		for _, j := range rng.Perm(n)[:deg] {
			_ = a.SetElement(i, j, rng.NormFloat64())
		}
	}
	labels := make([]int64, n)
	for j := range labels {
		labels[j] = rng.Int63n(n) - n/2
	}
	labels[n/2] = math.MinInt64
	u := grb.DenseVector(labels)
	a.Wait()
	tagged := grb.MinSecondOf[float64, int64]()
	literal := grb.Semiring[float64, int64, int64]{Add: grb.MinMonoid[int64](), Mul: grb.Second[float64, int64]()}
	for _, dir := range []grb.Direction{grb.DirPull, grb.DirPush} {
		var first *grb.Vector[int64]
		for _, p := range []int{1, 8} {
			atParallelism(p, func() {
				label := fmt.Sprintf("min.second %v P=%d", dir, p)
				trace := obs.NewTrace(4)
				restore := obs.Set(trace)
				var got [2]*grb.Vector[int64]
				for k, s := range []grb.Semiring[float64, int64, int64]{tagged, literal} {
					got[k] = grb.MustVector[int64](m)
					if err := grb.MxV(got[k], (*grb.Vector[bool])(nil), nil, s, a, u, &grb.Descriptor{Dir: dir}); err != nil {
						t.Fatal(err)
					}
				}
				obs.Set(restore)
				mustMatch[int64](t, label, got[0], got[1], byBits)
				ops := trace.Ops()
				if len(ops) != 2 || ops[0].Ops != "min.second" || ops[1].Ops != "" {
					t.Fatalf("%s: op records %+v, want the loops' min.second then the closures'", label, ops)
				}
				if dir == grb.DirPush && ops[0].Chunks < 2 {
					t.Fatalf("%s ran in %d chunk(s): nothing was folded", label, ops[0].Chunks)
				}
				if first == nil {
					first = got[0]
				} else {
					mustMatch[int64](t, label+" against P=1", got[0], first, byBits)
				}
			})
		}
	}
}
