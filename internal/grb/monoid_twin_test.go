package grb_test

// The reductions' tagged loops (mono.go, Monoid.fold) against the generic
// loop they replace: every built-in monoid beside its composite-literal
// twin, which carries the same operator, identity and terminal but no tag.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"lagraph/internal/grb"
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
	if calls != zeroAt+1 {
		t.Fatalf("the literal twin called its operator %d times, want %d: the run did not stop at the 0", calls, zeroAt+1)
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
