package grb

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

func TestSerializeMatrixRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	a := MustMatrix[float64](50, 70)
	for k := 0; k < 500; k++ {
		_ = a.SetElement(rng.Intn(50), rng.Intn(70), rng.Float64())
	}
	var buf bytes.Buffer
	if err := SerializeMatrix(&buf, a); err != nil {
		t.Fatal(err)
	}
	b, err := DeserializeMatrix[float64](&buf)
	if err != nil {
		t.Fatal(err)
	}
	ai, aj, ax := a.ExtractTuples()
	bi, bj, bx := b.ExtractTuples()
	if len(ai) != len(bi) {
		t.Fatalf("nvals %d vs %d", len(ai), len(bi))
	}
	for k := range ai {
		if ai[k] != bi[k] || aj[k] != bj[k] || ax[k] != bx[k] {
			t.Fatalf("entry %d differs", k)
		}
	}
}

func TestSerializeHypersparseRoundTrip(t *testing.T) {
	n := 1 << 40
	a := MustMatrix[int64](n, n)
	_ = a.SetElement(1<<35, 7, 42)
	_ = a.SetElement(3, 1<<30, 43)
	var buf bytes.Buffer
	if err := SerializeMatrix(&buf, a); err != nil {
		t.Fatal(err)
	}
	b, err := DeserializeMatrix[int64](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if b.Nrows() != n || b.Nvals() != 2 {
		t.Fatalf("dims/nvals: %d %d", b.Nrows(), b.Nvals())
	}
	if v, _ := b.GetElement(1<<35, 7); v != 42 {
		t.Fatal("entry lost")
	}
}

func TestSerializeEmptyAndStructTypes(t *testing.T) {
	// Empty matrix.
	a := MustMatrix[int](4, 6)
	var buf bytes.Buffer
	if err := SerializeMatrix(&buf, a); err != nil {
		t.Fatal(err)
	}
	b, err := DeserializeMatrix[int](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if b.Nrows() != 4 || b.Ncols() != 6 || b.Nvals() != 0 {
		t.Fatal("empty roundtrip")
	}

	// User-defined entry type.
	type pt struct{ X, Y float64 }
	m := MustMatrix[pt](3, 3)
	_ = m.SetElement(1, 2, pt{1.5, -2})
	buf.Reset()
	if err := SerializeMatrix(&buf, m); err != nil {
		t.Fatal(err)
	}
	m2, err := DeserializeMatrix[pt](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := m2.GetElement(1, 2); v != (pt{1.5, -2}) {
		t.Fatalf("struct entry %+v", v)
	}
}

func TestSerializeVectorRoundTrip(t *testing.T) {
	v := MustVector[int32](100)
	_ = v.SetElement(3, 33)
	_ = v.SetElement(77, 777)
	var buf bytes.Buffer
	if err := SerializeVector(&buf, v); err != nil {
		t.Fatal(err)
	}
	w, err := DeserializeVector[int32](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if w.Size() != 100 || w.Nvals() != 2 {
		t.Fatal("shape")
	}
	if x, _ := w.GetElement(77); x != 777 {
		t.Fatal("value")
	}
}

func TestDeserializeGarbage(t *testing.T) {
	if _, err := DeserializeMatrix[int](bytes.NewReader([]byte("not gob"))); err == nil {
		t.Fatal("garbage must fail")
	}
	if _, err := DeserializeVector[int](bytes.NewReader(nil)); err == nil {
		t.Fatal("empty must fail")
	}
	if err := SerializeMatrix[int](&bytes.Buffer{}, nil); !errors.Is(err, ErrUninitialized) {
		t.Fatal("nil matrix")
	}
}
