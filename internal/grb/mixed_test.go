package grb_test

// Mixed-domain conformance: the GraphBLAS allows the two multiply inputs
// and the output to live in different domains. These tests drive the
// kernels with heterogeneous semirings and compare against the mimic.

import (
	"math/rand"
	"testing"

	"lagraph/internal/grb"
	"lagraph/internal/grb/ref"
)

// lorLt: bool = OR over k of (a < b) — int64 inputs, bool output.
func lorLt() grb.Semiring[int64, int64, bool] {
	return grb.Semiring[int64, int64, bool]{Add: grb.LOrMonoid(), Mul: grb.Lt[int64]()}
}

func TestConformanceMixedDomainMxM(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 8; trial++ {
		m, k, n := 1+rng.Intn(20), 1+rng.Intn(20), 1+rng.Intn(20)
		a := random(rng, m, k, 0.25, small)
		b := random(rng, k, n, 0.25, small)
		for _, method := range []grb.MxMMethod{grb.MxMGustavson, grb.MxMDot, grb.MxMHeap} {
			c := grb.MustMatrix[bool](m, n)
			d := grb.Descriptor{Method: method}
			if err := grb.MxM[int64, int64, bool, bool](c, nil, nil, lorLt(), a, b, &d); err != nil {
				t.Fatal(err)
			}
			want := ref.NewMat[bool](m, n)
			ref.MxM[int64, int64, bool, bool](want, nil, nil, lorLt(), ref.FromMatrix(a), ref.FromMatrix(b), ref.Desc{})
			mustMatch[bool](t, "", c, want, byValue)
		}
	}
}

func TestConformanceMixedDomainVxM(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	// plus.pair: int64 count of reachable-by-one-hop contributions from a
	// bool frontier over a float-weighted matrix.
	s := grb.Semiring[bool, int64, int64]{Add: grb.PlusMonoid[int64](), Mul: grb.Pair[bool, int64, int64]()}
	for trial := 0; trial < 8; trial++ {
		m, n := 1+rng.Intn(30), 1+rng.Intn(30)
		a := random(rng, m, n, 0.2, small)
		u := grb.MustVector[bool](m)
		for i := 0; i < m; i++ {
			if rng.Float64() < 0.4 {
				_ = u.SetElement(i, rng.Float64() < 0.5)
			}
		}
		for _, dir := range []grb.Direction{grb.DirPush, grb.DirPull} {
			w := grb.MustVector[int64](n)
			d := grb.Descriptor{Dir: dir}
			if err := grb.VxM[int64, bool, int64, bool](w, nil, nil, s, u, a, &d); err != nil {
				t.Fatal(err)
			}
			want := ref.NewVec[int64](n)
			ref.VxM[int64, bool, int64, bool](want, nil, nil, s, ref.FromVector(u), ref.FromMatrix(a), ref.Desc{})
			mustMatch[int64](t, "", w, want, byValue)
		}
	}
}

func TestConformanceMixedEWiseAndApply(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	m, n := 25, 20
	a := random(rng, m, n, 0.3, small)
	b := random(rng, m, n, 0.3, small)

	// eWiseMult with comparison output.
	c := grb.MustMatrix[bool](m, n)
	if err := grb.EWiseMultMatrix[int64, int64, bool, bool](c, nil, nil, grb.Le[int64](), a, b, nil); err != nil {
		t.Fatal(err)
	}
	want := ref.NewMat[bool](m, n)
	ref.EWiseMultMat[int64, int64, bool, bool](want, nil, nil, grb.Le[int64](), ref.FromMatrix(a), ref.FromMatrix(b), ref.Desc{})
	mustMatch[bool](t, "", c, want, byValue)

	// apply with domain change int64 → string-ish (use float64 to stay
	// comparable).
	f := func(x int64) float64 { return float64(x) / 2 }
	cf := grb.MustMatrix[float64](m, n)
	if err := grb.ApplyMatrix[int64, float64, bool](cf, nil, nil, f, a, nil); err != nil {
		t.Fatal(err)
	}
	wantF := ref.NewMat[float64](m, n)
	ref.Apply[int64, float64, bool](wantF, nil, nil, f, ref.FromMatrix(a), ref.Desc{})
	mustMatch[float64](t, "", cf, wantF, byValue)
}

func TestUserDefinedTypes(t *testing.T) {
	// Entries of an arbitrary struct type: the "user-defined types" the C
	// API supports via void*; here they are ordinary Go structs.
	type edge struct {
		W   int
		Tag string
	}
	a := grb.MustMatrix[edge](3, 3)
	_ = a.SetElement(0, 1, edge{2, "a"})
	_ = a.SetElement(1, 2, edge{3, "b"})

	// Semiring over the struct: min-plus on W, concatenating tags.
	s := grb.Semiring[edge, edge, edge]{
		Add: grb.Monoid[edge]{
			Op: func(x, y edge) edge {
				if x.W <= y.W {
					return x
				}
				return y
			},
			Identity: edge{W: 1 << 30},
		},
		Mul: func(x, y edge) edge { return edge{x.W + y.W, x.Tag + y.Tag} },
	}
	c := grb.MustMatrix[edge](3, 3)
	if err := grb.MxM[edge, edge, edge, bool](c, nil, nil, s, a, a, nil); err != nil {
		t.Fatal(err)
	}
	got, err := c.GetElement(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got.W != 5 || got.Tag != "ab" {
		t.Fatalf("got %+v", got)
	}
	if c.Nvals() != 1 {
		t.Fatalf("nvals=%d", c.Nvals())
	}
}
