package grb

import (
	"errors"
	"testing"
)

func TestMatrixIterate(t *testing.T) {
	a := MustMatrix[int](3, 3)
	_ = a.SetElement(2, 1, 21)
	_ = a.SetElement(0, 2, 2)
	_ = a.SetElement(0, 0, 0)
	var got [][3]int
	a.Iterate(func(i, j int, x int) bool {
		got = append(got, [3]int{i, j, x})
		return true
	})
	want := [][3]int{{0, 0, 0}, {0, 2, 2}, {2, 1, 21}}
	if len(got) != len(want) {
		t.Fatalf("%v", got)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("entry %d: %v want %v", k, got[k], want[k])
		}
	}
	// Early stop.
	count := 0
	a.Iterate(func(_, _ int, _ int) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("early stop: %d", count)
	}
}

func TestIterateRow(t *testing.T) {
	a := MustMatrix[int](3, 4)
	_ = a.SetElement(1, 3, 13)
	_ = a.SetElement(1, 0, 10)
	var cols []int
	if err := a.IterateRow(1, func(j int, x int) bool {
		cols = append(cols, j)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(cols) != 2 || cols[0] != 0 || cols[1] != 3 {
		t.Fatalf("cols=%v", cols)
	}
	if err := a.IterateRow(5, func(int, int) bool { return true }); !errors.Is(err, ErrIndexOutOfBounds) {
		t.Fatal("oob row")
	}
	// Empty row iterates nothing.
	ran := false
	_ = a.IterateRow(0, func(int, int) bool { ran = true; return true })
	if ran {
		t.Fatal("empty row")
	}
}

func TestVectorIterate(t *testing.T) {
	v := MustVector[string](5)
	_ = v.SetElement(4, "d")
	_ = v.SetElement(1, "a")
	var idx []int
	v.Iterate(func(i int, x string) bool {
		idx = append(idx, i)
		return true
	})
	if len(idx) != 2 || idx[0] != 1 || idx[1] != 4 {
		t.Fatalf("idx=%v", idx)
	}
}

func TestInnerProduct(t *testing.T) {
	u := MustVector[int64](6)
	v := MustVector[int64](6)
	_ = u.SetElement(0, 2)
	_ = u.SetElement(2, 3)
	_ = u.SetElement(4, 5)
	_ = v.SetElement(2, 10)
	_ = v.SetElement(4, 100)
	_ = v.SetElement(5, 7)
	got, ok, err := InnerProduct(PlusTimes[int64](), u, v)
	if err != nil || !ok {
		t.Fatal(err)
	}
	if got != 3*10+5*100 {
		t.Fatalf("dot=%d", got)
	}
	// Empty intersection.
	w := MustVector[int64](6)
	_ = w.SetElement(1, 1)
	_, ok, err = InnerProduct(PlusTimes[int64](), u, w)
	if err != nil || ok {
		t.Fatal("empty intersection must report ok=false")
	}
	// Terminal early exit (any monoid): the first common product, at 2.
	if got, ok, err = InnerProduct(AnySecond[int64](), u, v); err != nil || !ok || got != 10 {
		t.Fatalf("any.second = %d, %v, %v; want 10", got, ok, err)
	}
	if got, ok, err = InnerProduct(AnyFirst[int64](), u, v); err != nil || !ok || got != 3 {
		t.Fatalf("any.first = %d, %v, %v; want 3", got, ok, err)
	}
	// Dim mismatch.
	bad := MustVector[int64](7)
	if _, _, err := InnerProduct(PlusTimes[int64](), u, bad); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatal("dims")
	}
}

func TestExtractMatrixRowAndCol(t *testing.T) {
	a := MustMatrix[int64](3, 4)
	_ = a.SetElement(1, 0, 10)
	_ = a.SetElement(1, 3, 13)
	_ = a.SetElement(2, 3, 23)

	// Row 1 as a vector.
	w := MustVector[int64](4)
	if err := ExtractMatrixRow[int64, bool](w, nil, nil, a, 1, nil, nil); err != nil {
		t.Fatal(err)
	}
	if w.Nvals() != 2 {
		t.Fatalf("row nvals=%d", w.Nvals())
	}
	if x, _ := w.GetElement(3); x != 13 {
		t.Fatal("row value")
	}

	// Column 3 as a vector.
	v := MustVector[int64](3)
	if err := ExtractMatrixCol[int64, bool](v, nil, nil, a, nil, 3, nil); err != nil {
		t.Fatal(err)
	}
	if v.Nvals() != 2 {
		t.Fatalf("col nvals=%d", v.Nvals())
	}
	if x, _ := v.GetElement(2); x != 23 {
		t.Fatal("col value")
	}

	// Subset of a row.
	ws := MustVector[int64](2)
	if err := ExtractMatrixRow[int64, bool](ws, nil, nil, a, 1, []int{3, 1}, nil); err != nil {
		t.Fatal(err)
	}
	if x, _ := ws.GetElement(0); x != 13 {
		t.Fatal("subset reorder")
	}
	if _, err := ws.GetElement(1); err == nil {
		t.Fatal("a(1,1) is empty")
	}
}

func TestAssignMatrixRow(t *testing.T) {
	a := MustMatrix[int64](3, 5)
	_ = a.SetElement(1, 0, 1)
	_ = a.SetElement(1, 2, 2)
	_ = a.SetElement(0, 4, 9)

	u := MustVector[int64](5)
	_ = u.SetElement(1, 11)
	_ = u.SetElement(2, 22)
	if err := AssignMatrixRow[int64, bool](a, nil, nil, u, 1, nil, nil); err != nil {
		t.Fatal(err)
	}
	// Row 1 now mirrors u exactly (no accum → deletions where u empty).
	if _, err := a.GetElement(1, 0); err == nil {
		t.Fatal("a(1,0) must be deleted")
	}
	if x, _ := a.GetElement(1, 1); x != 11 {
		t.Fatal("a(1,1)")
	}
	if x, _ := a.GetElement(1, 2); x != 22 {
		t.Fatal("a(1,2)")
	}
	// Other rows untouched.
	if x, _ := a.GetElement(0, 4); x != 9 {
		t.Fatal("other row")
	}

	// Accumulate into a sub-region.
	u2 := MustVector[int64](2)
	_ = u2.SetElement(0, 100)
	if err := AssignMatrixRow[int64, bool](a, nil, Plus[int64](), u2, 1, []int{2, 3}, nil); err != nil {
		t.Fatal(err)
	}
	if x, _ := a.GetElement(1, 2); x != 122 {
		t.Fatalf("accum region: %d", x)
	}
	// Position 3 (u2(1) empty, accum non-nil) untouched/absent.
	if _, err := a.GetElement(1, 3); err == nil {
		t.Fatal("a(1,3) should stay empty")
	}

	// Errors.
	if err := AssignMatrixRow[int64, bool](a, nil, nil, u, 7, nil, nil); !errors.Is(err, ErrIndexOutOfBounds) {
		t.Fatal("row oob")
	}
	if err := AssignMatrixRow[int64, bool](a, nil, nil, u2, 1, nil, nil); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatal("dims")
	}
}
