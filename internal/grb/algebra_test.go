package grb_test

import (
	"math/rand"
	"testing"

	"lagraph/internal/grb"
)

// End-to-end algebraic laws: the kernels must realise the semiring
// algebra, so matrix identities that hold in exact arithmetic must hold
// for the computed results.

func mxmInto(t *testing.T, nr, nc int, a, b *grb.Matrix[int64], method grb.MxMMethod) *grb.Matrix[int64] {
	t.Helper()
	c := grb.MustMatrix[int64](nr, nc)
	d := &grb.Descriptor{Method: method}
	if err := grb.MxM[int64, int64, int64, bool](c, nil, nil, grb.PlusTimes[int64](), a, b, d); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestMxMAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 6; trial++ {
		m, k1, k2, n := 1+rng.Intn(15), 1+rng.Intn(15), 1+rng.Intn(15), 1+rng.Intn(15)
		a := random(rng, m, k1, 30/float64(m*k1), small)
		b := random(rng, k1, k2, 30/float64(k1*k2), small)
		c := random(rng, k2, n, 30/float64(k2*n), small)
		// (A·B)·C — Gustavson throughout.
		ab := mxmInto(t, m, k2, a, b, grb.MxMGustavson)
		abc1 := mxmInto(t, m, n, ab, c, grb.MxMGustavson)
		// A·(B·C) — heap throughout (also crosses kernels).
		bc := mxmInto(t, k1, n, b, c, grb.MxMHeap)
		abc2 := mxmInto(t, m, n, a, bc, grb.MxMHeap)
		mustMatch[int64](t, "associativity", abc1, abc2, byValue)
	}
}

func TestMxMDistributesOverEWiseAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	for trial := 0; trial < 6; trial++ {
		m, k, n := 1+rng.Intn(15), 1+rng.Intn(15), 1+rng.Intn(15)
		a := random(rng, m, k, 30/float64(m*k), small)
		b := random(rng, k, n, 30/float64(k*n), small)
		c := random(rng, k, n, 30/float64(k*n), small)
		// A·(B+C)
		bpc := grb.MustMatrix[int64](k, n)
		if err := grb.EWiseAddMatrix[int64, bool](bpc, nil, nil, grb.Plus[int64](), b, c, nil); err != nil {
			t.Fatal(err)
		}
		lhs := mxmInto(t, m, n, a, bpc, grb.MxMGustavson)
		// A·B + A·C — may contain explicit zeros where the two products
		// cancel; A·(B+C) drops positions where B+C cancelled first. Add
		// both sides to a common zero matrix... instead compare values at
		// the union: lhs+0 vs ab+ac as eWiseAdd, then drop explicit zeros
		// from both.
		ab := mxmInto(t, m, n, a, b, grb.MxMDot)
		ac := mxmInto(t, m, n, a, c, grb.MxMDot)
		rhs := grb.MustMatrix[int64](m, n)
		if err := grb.EWiseAddMatrix[int64, bool](rhs, nil, nil, grb.Plus[int64](), ab, ac, nil); err != nil {
			t.Fatal(err)
		}
		lhsNZ := dropZeros(t, lhs)
		rhsNZ := dropZeros(t, rhs)
		mustMatch[int64](t, "distributivity (nonzeros)", lhsNZ, rhsNZ, byValue)
	}
}

func dropZeros(t *testing.T, a *grb.Matrix[int64]) *grb.Matrix[int64] {
	t.Helper()
	out := grb.MustMatrix[int64](a.Nrows(), a.Ncols())
	if err := grb.SelectMatrix[int64, bool](out, nil, nil, grb.ValueNE(int64(0)), a, nil); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestTransposeProductIdentity(t *testing.T) {
	// (A·B)ᵀ == Bᵀ·Aᵀ
	rng := rand.New(rand.NewSource(93))
	for trial := 0; trial < 6; trial++ {
		m, k, n := 1+rng.Intn(20), 1+rng.Intn(20), 1+rng.Intn(20)
		a := random(rng, m, k, 40/float64(m*k), small)
		b := random(rng, k, n, 40/float64(k*n), small)
		ab := mxmInto(t, m, n, a, b, grb.MxMGustavson)
		abT := grb.MustMatrix[int64](n, m)
		if err := grb.Transpose[int64, bool](abT, nil, nil, ab, nil); err != nil {
			t.Fatal(err)
		}
		// Bᵀ·Aᵀ via descriptor transposes.
		btat := grb.MustMatrix[int64](n, m)
		d := &grb.Descriptor{TranA: true, TranB: true}
		if err := grb.MxM[int64, int64, int64, bool](btat, nil, nil, grb.PlusTimes[int64](), b, a, d); err != nil {
			t.Fatal(err)
		}
		mustMatch[int64](t, "(AB)ᵀ = BᵀAᵀ", abT, btat, byValue)
	}
}

func TestBFSSelfLoopsHarmless(t *testing.T) {
	// Self loops must not change reachability semantics in the kernels:
	// w = uᵀA with LOR over a matrix with diagonal entries just re-adds
	// already-present contributions.
	a := grb.MustMatrix[float64](4, 4)
	_ = a.SetElement(0, 0, 1) // self loop
	_ = a.SetElement(0, 1, 1)
	_ = a.SetElement(1, 2, 1)
	u := grb.MustVector[bool](4)
	_ = u.SetElement(0, true)
	logical := grb.Semiring[bool, float64, bool]{Add: grb.LOrMonoid(), Mul: grb.First[bool, float64]()}
	w := grb.MustVector[bool](4)
	if err := grb.VxM[float64, bool, bool, bool](w, nil, nil, logical, u, a, nil); err != nil {
		t.Fatal(err)
	}
	if w.Nvals() != 2 { // 0 (self loop) and 1
		t.Fatalf("nvals=%d", w.Nvals())
	}
	if _, err := w.GetElement(1); err != nil {
		t.Fatal("neighbour missing")
	}
}
