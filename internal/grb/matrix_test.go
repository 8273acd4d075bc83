package grb

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewMatrixValidation(t *testing.T) {
	if _, err := NewMatrix[int](-1, 3); !errors.Is(err, ErrInvalidValue) {
		t.Fatalf("want ErrInvalidValue, got %v", err)
	}
	if _, err := NewMatrix[int](3, -1); !errors.Is(err, ErrInvalidValue) {
		t.Fatalf("want ErrInvalidValue, got %v", err)
	}
	a, err := NewMatrix[int](0, 0)
	if err != nil || a.Nrows() != 0 || a.Ncols() != 0 {
		t.Fatalf("0x0 matrix should be valid: %v", err)
	}
}

func TestSetGetRemoveElement(t *testing.T) {
	a := MustMatrix[float64](5, 7)
	if err := a.SetElement(2, 3, 4.5); err != nil {
		t.Fatal(err)
	}
	if err := a.SetElement(5, 0, 1); !errors.Is(err, ErrIndexOutOfBounds) {
		t.Fatalf("want ErrIndexOutOfBounds, got %v", err)
	}
	if err := a.SetElement(0, 7, 1); !errors.Is(err, ErrIndexOutOfBounds) {
		t.Fatalf("want ErrIndexOutOfBounds, got %v", err)
	}
	v, err := a.GetElement(2, 3)
	if err != nil || v != 4.5 {
		t.Fatalf("got (%v,%v) want (4.5,nil)", v, err)
	}
	if _, err := a.GetElement(0, 0); !errors.Is(err, ErrNoValue) {
		t.Fatalf("want ErrNoValue, got %v", err)
	}
	// Overwrite keeps a single entry.
	_ = a.SetElement(2, 3, 9)
	if n := a.Nvals(); n != 1 {
		t.Fatalf("nvals=%d want 1", n)
	}
	v, _ = a.GetElement(2, 3)
	if v != 9 {
		t.Fatalf("overwrite: got %v want 9", v)
	}
	if err := a.RemoveElement(2, 3); err != nil {
		t.Fatal(err)
	}
	if n := a.Nvals(); n != 0 {
		t.Fatalf("after remove nvals=%d want 0", n)
	}
	// Removing a missing element is a no-op.
	if err := a.RemoveElement(1, 1); err != nil {
		t.Fatal(err)
	}
}

func TestPendingTuplesAndZombies(t *testing.T) {
	a := MustMatrix[int](100, 100)
	for k := 0; k < 50; k++ {
		_ = a.SetElement(k%10, k%7, k)
	}
	pend, zomb := a.Pending()
	if pend != 50 || zomb != 0 {
		t.Fatalf("pending=%d zombies=%d, want 50/0", pend, zomb)
	}
	a.Wait()
	pend, zomb = a.Pending()
	if pend != 0 || zomb != 0 {
		t.Fatalf("after wait pending=%d zombies=%d", pend, zomb)
	}
	// Zombies accumulate until the next materialization.
	_ = a.RemoveElement(0, 0)
	_, zomb = a.Pending()
	if zomb != 1 {
		t.Fatalf("zombies=%d want 1", zomb)
	}
	if _, err := a.GetElement(0, 0); !errors.Is(err, ErrNoValue) {
		t.Fatalf("zombie should read as missing, got %v", err)
	}
	// Resurrection: set after remove.
	_ = a.RemoveElement(1, 1)
	_ = a.SetElement(1, 1, 42)
	v, err := a.GetElement(1, 1)
	if err != nil || v != 42 {
		t.Fatalf("resurrected entry: got (%v,%v)", v, err)
	}
}

func TestSetElementMatchesBuild(t *testing.T) {
	// The pending-tuple mechanism makes e SetElement calls equivalent to
	// one Build of e tuples (§II-A).
	rng := rand.New(rand.NewSource(42))
	n := 200
	e := 2000
	is := make([]int, e)
	js := make([]int, e)
	xs := make([]int64, e)
	for k := range is {
		is[k] = rng.Intn(n)
		js[k] = rng.Intn(n)
		xs[k] = int64(k)
	}
	viaBuild := MustMatrix[int64](n, n)
	if err := viaBuild.Build(is, js, xs, Second[int64, int64]()); err != nil {
		t.Fatal(err)
	}
	viaSet := MustMatrix[int64](n, n)
	for k := range is {
		_ = viaSet.SetElement(is[k], js[k], xs[k])
	}
	bi, bj, bx := viaBuild.ExtractTuples()
	si, sj, sx := viaSet.ExtractTuples()
	if len(bi) != len(si) {
		t.Fatalf("nvals differ: build=%d set=%d", len(bi), len(si))
	}
	for k := range bi {
		if bi[k] != si[k] || bj[k] != sj[k] || bx[k] != sx[k] {
			t.Fatalf("entry %d differs: build=(%d,%d,%d) set=(%d,%d,%d)",
				k, bi[k], bj[k], bx[k], si[k], sj[k], sx[k])
		}
	}
}

func TestBuildErrors(t *testing.T) {
	a := MustMatrix[int](4, 4)
	if err := a.Build([]int{0}, []int{0, 1}, []int{1}, nil); !errors.Is(err, ErrInvalidValue) {
		t.Fatalf("length mismatch: %v", err)
	}
	if err := a.Build([]int{9}, []int{0}, []int{1}, nil); !errors.Is(err, ErrIndexOutOfBounds) {
		t.Fatalf("oob: %v", err)
	}
	if err := a.Build([]int{0, 0}, []int{0, 0}, []int{1, 2}, nil); !errors.Is(err, ErrInvalidValue) {
		t.Fatalf("dup without op: %v", err)
	}
	if err := a.Build([]int{0, 0}, []int{0, 0}, []int{1, 2}, Plus[int]()); err != nil {
		t.Fatalf("dup with op: %v", err)
	}
	if v, _ := a.GetElement(0, 0); v != 3 {
		t.Fatalf("dup sum: got %d want 3", v)
	}
	// Build on a non-empty matrix fails.
	if err := a.Build([]int{1}, []int{1}, []int{1}, nil); !errors.Is(err, ErrInvalidValue) {
		t.Fatalf("non-empty build: %v", err)
	}
}

func TestDupIsDeep(t *testing.T) {
	a := MustMatrix[int](3, 3)
	_ = a.SetElement(1, 1, 5)
	b := a.Dup()
	_ = a.SetElement(1, 1, 9)
	v, _ := b.GetElement(1, 1)
	if v != 5 {
		t.Fatalf("dup not deep: got %d", v)
	}
}

func TestImportExportRoundTrip(t *testing.T) {
	p := []int{0, 2, 2, 3}
	i := []int{0, 2, 1}
	x := []float64{1, 2, 3}
	a, err := ImportCSR(3, 3, p, i, x, false)
	if err != nil {
		t.Fatal(err)
	}
	if a.Nvals() != 3 {
		t.Fatalf("nvals=%d", a.Nvals())
	}
	v, _ := a.GetElement(0, 2)
	if v != 2 {
		t.Fatalf("a(0,2)=%v", v)
	}
	nr, nc, p2, i2, x2 := a.ExportCSR()
	if nr != 3 || nc != 3 {
		t.Fatalf("dims %dx%d", nr, nc)
	}
	// Export empties the matrix.
	if a.Nvals() != 0 {
		t.Fatalf("export should empty the matrix, nvals=%d", a.Nvals())
	}
	// Re-import reconstructs perfectly (§IV).
	b, err := ImportCSR(nr, nc, p2, i2, x2, true)
	if err != nil {
		t.Fatal(err)
	}
	v, _ = b.GetElement(2, 1)
	if v != 3 {
		t.Fatalf("b(2,1)=%v", v)
	}
}

func TestImportValidation(t *testing.T) {
	if _, err := ImportCSR(2, 2, []int{0, 1}, []int{0}, []int{1}, false); !errors.Is(err, ErrInvalidValue) {
		t.Fatalf("short p: %v", err)
	}
	if _, err := ImportCSR(2, 2, []int{0, 1, 1}, []int{5}, []int{1}, false); !errors.Is(err, ErrInvalidValue) {
		t.Fatalf("oob index: %v", err)
	}
	if _, err := ImportCSR(2, 2, []int{0, 2, 2}, []int{1, 0}, []int{1, 2}, false); !errors.Is(err, ErrInvalidValue) {
		t.Fatalf("unsorted row: %v", err)
	}
}

func TestImportExportCSC(t *testing.T) {
	// 2x3 matrix: (0,0)=1, (1,0)=2, (1,2)=3 in CSC.
	p := []int{0, 2, 2, 3}
	i := []int{0, 1, 1}
	x := []int{1, 2, 3}
	a, err := ImportCSC(2, 3, p, i, x, false)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := a.GetElement(1, 2); v != 3 {
		t.Fatalf("a(1,2)=%v", v)
	}
	if v, _ := a.GetElement(0, 0); v != 1 {
		t.Fatalf("a(0,0)=%v", v)
	}
	nr, nc, p2, i2, x2 := a.ExportCSC()
	if nr != 2 || nc != 3 || len(i2) != 3 {
		t.Fatalf("export dims %dx%d nnz=%d", nr, nc, len(i2))
	}
	b, err := ImportCSC(nr, nc, p2, i2, x2, true)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := b.GetElement(1, 0); v != 2 {
		t.Fatalf("b(1,0)=%v", v)
	}
}

func TestHypersparseFormat(t *testing.T) {
	// A matrix with enormous dimensions: storage must be O(e), and a
	// standard CSR pointer array of n+1 = 2^40 entries would be absurd.
	n := 1 << 40
	a := MustMatrix[int](n, n)
	for k := 0; k < 1000; k++ {
		_ = a.SetElement(k*(1<<28), (k*7919)%n, k)
	}
	if got := a.Nvals(); got != 1000 {
		t.Fatalf("nvals=%d", got)
	}
	if a.csr.h == nil {
		t.Fatal("expected hypersparse storage")
	}
	if len(a.csr.p) > 1001 {
		t.Fatalf("pointer array has %d entries; hypersparse should be O(e)", len(a.csr.p))
	}
	v, err := a.GetElement(2*(1<<28), (2*7919)%n)
	if err != nil || v != 2 {
		t.Fatalf("get: (%v,%v)", v, err)
	}
	// Transpose and reduce work without O(n) blowup.
	at := MustMatrix[int](n, n)
	if err := Transpose[int, bool](at, nil, nil, a, nil); err != nil {
		t.Fatal(err)
	}
	if at.Nvals() != 1000 {
		t.Fatalf("transpose nvals=%d", at.Nvals())
	}
	// Extracting columns gathers rows: an inverse index over 2^40 columns
	// is not an option.
	c := MustMatrix[int](2, 2)
	if err := ExtractMatrix[int, bool](c, nil, nil, a, []int{2 << 28, 3 << 28}, []int{(3 * 7919) % n, (2 * 7919) % n}, nil); err != nil {
		t.Fatal(err)
	}
	if x, err := c.GetElement(0, 1); err != nil || x != 2 || c.Nvals() != 2 {
		t.Fatalf("extract: c(0,1)=%v (%v), nvals=%d", x, err, c.Nvals())
	}
	sum, err := ReduceMatrixToScalar(PlusMonoid[int](), a)
	if err != nil || sum != 999*1000/2 {
		t.Fatalf("sum=%d err=%v", sum, err)
	}
}

func TestFormatAutoSwitch(t *testing.T) {
	// Sparse fill over a large dimension should select hypersparse
	// automatically; densifying should switch back.
	n := hyperThresholdDim * hyperRatio * 2
	a := MustMatrix[int](n, 4)
	for k := 0; k < 10; k++ {
		_ = a.SetElement(k*1000, k%4, k)
	}
	a.Wait()
	if a.csr.h == nil {
		t.Fatal("auto format should pick hypersparse for sparse fill")
	}
	small := MustMatrix[int](10, 10)
	_ = small.SetElement(1, 1, 1)
	small.Wait()
	if small.csr.h != nil {
		t.Fatal("small matrices should stay standard")
	}
}

func TestClearAndResizeBehaviour(t *testing.T) {
	a := MustMatrix[int](4, 4)
	_ = a.SetElement(1, 2, 3)
	a.Clear()
	if a.Nvals() != 0 {
		t.Fatal("clear should drop entries")
	}
	if a.Nrows() != 4 || a.Ncols() != 4 {
		t.Fatal("clear must keep dimensions")
	}
}

// TestClearKeepsHugeMatrixHypersparse: Clear rebuilds the empty structure
// by the same content rule as NewMatrix, so clearing a matrix of enormous
// dimension stays O(1) instead of allocating a 2^40+1 row-pointer array.
func TestClearKeepsHugeMatrixHypersparse(t *testing.T) {
	n := 1 << 40
	a := MustMatrix[int](n, n)
	if err := a.SetElement(n-1, 3, 7); err != nil {
		t.Fatal(err)
	}
	a.Wait()
	a.Clear()
	if a.Nvals() != 0 {
		t.Fatalf("nvals=%d after Clear", a.Nvals())
	}
	if a.csr.h == nil {
		t.Fatal("Clear left a huge matrix in standard storage")
	}
	if err := a.SetElement(5, n-2, 9); err != nil {
		t.Fatal(err)
	}
	a.Wait()
	if v, err := a.GetElement(5, n-2); err != nil || v != 9 || a.Nvals() != 1 {
		t.Fatalf("after Clear+SetElement: (%d, %v), nvals=%d", v, err, a.Nvals())
	}
}

// TestImportedAndBuiltTwinsAlike: a matrix's storage form depends only on
// its content, so an imported matrix and a built one holding the same
// entries take the same form under the same write and serialize alike.
func TestImportedAndBuiltTwinsAlike(t *testing.T) {
	const n = 64
	p, is, js, xs := []int{0, n}, make([]int, n), make([]int, n), make([]int64, n)
	for j := range js {
		js[j], xs[j] = j, int64(j)
	}
	imported, err := ImportCSR(1, n, p, append([]int(nil), js...), append([]int64(nil), xs...), false)
	if err != nil {
		t.Fatal(err)
	}
	built := MustMatrix[int64](1, n)
	if err := built.Build(is, js, xs, nil); err != nil {
		t.Fatal(err)
	}
	for _, twin := range []*Matrix[int64]{imported, built} {
		if err := AssignMatrix[int64, bool](twin, nil, Plus[int64](), built.Dup(), All, All, nil); err != nil {
			t.Fatal(err)
		}
	}
	di, si := imported.Forms()
	db, sb := built.Forms()
	if di != db || si != sb {
		t.Fatalf("imported twin forms (dense=%v, stale=%v), built twin (dense=%v, stale=%v)", di, si, db, sb)
	}
	var bi, bb bytes.Buffer
	if err := SerializeMatrix(&bi, imported); err != nil {
		t.Fatal(err)
	}
	if err := SerializeMatrix(&bb, built); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bi.Bytes(), bb.Bytes()) {
		t.Fatalf("imported twin serializes to %d bytes, built twin to %d, and they differ", bi.Len(), bb.Len())
	}
}

func TestExtractTuplesRowMajorOrder(t *testing.T) {
	a := MustMatrix[int](3, 3)
	_ = a.SetElement(2, 0, 1)
	_ = a.SetElement(0, 1, 2)
	_ = a.SetElement(0, 0, 3)
	is, js, _ := a.ExtractTuples()
	want := [][2]int{{0, 0}, {0, 1}, {2, 0}}
	for k := range want {
		if is[k] != want[k][0] || js[k] != want[k][1] {
			t.Fatalf("order: got (%d,%d) want %v", is[k], js[k], want[k])
		}
	}
}

// Property: Build(ExtractTuples(A)) == A for arbitrary tuple sets.
func TestQuickBuildExtractRoundTrip(t *testing.T) {
	f := func(coords []uint16, vals []int16) bool {
		n := 128
		m := len(coords)
		if len(vals) < m {
			m = len(vals)
		}
		is := make([]int, m)
		js := make([]int, m)
		xs := make([]int64, m)
		for k := 0; k < m; k++ {
			is[k] = int(coords[k]) % n
			js[k] = (int(coords[k]) / n) % n
			xs[k] = int64(vals[k])
		}
		a := MustMatrix[int64](n, n)
		if err := a.Build(is, js, xs, Second[int64, int64]()); err != nil {
			return false
		}
		i2, j2, x2 := a.ExtractTuples()
		b := MustMatrix[int64](n, n)
		if err := b.Build(i2, j2, x2, nil); err != nil {
			return false
		}
		i3, j3, x3 := b.ExtractTuples()
		if len(i2) != len(i3) {
			return false
		}
		for k := range i2 {
			if i2[k] != i3[k] || j2[k] != j3[k] || x2[k] != x3[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: transpose is an involution.
func TestQuickTransposeInvolution(t *testing.T) {
	f := func(coords []uint16, vals []int16, hyper bool) bool {
		nr, nc := 64, 96
		m := min(len(coords), len(vals))
		a := MustMatrix[int64](nr, nc)
		for k := 0; k < m; k++ {
			_ = a.SetElement(int(coords[k])%nr, (int(coords[k])/7)%nc, int64(vals[k]))
		}
		if hyper {
			a.Hold("hyper")
		}
		at := MustMatrix[int64](nc, nr)
		if err := Transpose[int64, bool](at, nil, nil, a, nil); err != nil {
			return false
		}
		att := MustMatrix[int64](nr, nc)
		if err := Transpose[int64, bool](att, nil, nil, at, nil); err != nil {
			return false
		}
		ai, aj, ax := a.ExtractTuples()
		bi, bj, bx := att.ExtractTuples()
		if len(ai) != len(bi) {
			return false
		}
		for k := range ai {
			if ai[k] != bi[k] || aj[k] != bj[k] || ax[k] != bx[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaved set/remove/get behaves like a map (the
// pending-tuple + zombie machinery has no observable effect).
func TestQuickMatrixVsMap(t *testing.T) {
	f := func(ops []int32) bool {
		nr, nc := 24, 17
		a := MustMatrix[int64](nr, nc)
		model := map[[2]int]int64{}
		for _, op := range ops {
			v := int(op)
			if v < 0 {
				v = -v
			}
			i, j := v%nr, (v/nr)%nc
			switch op % 4 {
			case 0:
				_ = a.RemoveElement(i, j)
				delete(model, [2]int{i, j})
			case 1, -1:
				got, err := a.GetElement(i, j)
				want, ok := model[[2]int{i, j}]
				if ok != (err == nil) || (ok && got != want) {
					return false
				}
			default:
				_ = a.SetElement(i, j, int64(op))
				model[[2]int{i, j}] = int64(op)
			}
		}
		if a.Nvals() != len(model) {
			return false
		}
		for pos, want := range model {
			got, err := a.GetElement(pos[0], pos[1])
			if err != nil || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: Dup and serialization agree with the original under random
// mutation histories.
func TestQuickMergeElementAssociativity(t *testing.T) {
	f := func(vals []int16) bool {
		n := 64
		v := MustVector[int64](n)
		model := map[int]int64{}
		for k, x := range vals {
			i := k % n
			_ = v.MergeElement(i, int64(x), MinOp[int64]())
			if old, ok := model[i]; !ok || int64(x) < old {
				model[i] = int64(x)
			}
		}
		if v.Nvals() != len(model) {
			return false
		}
		for i, want := range model {
			got, err := v.GetElement(i)
			if err != nil || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: CSR and CSC views describe the same matrix.
func TestQuickCSRCSCConsistency(t *testing.T) {
	f := func(coords []uint16, vals []int16) bool {
		nr, nc := 50, 70
		m := min(len(coords), len(vals))
		a := MustMatrix[int64](nr, nc)
		for k := 0; k < m; k++ {
			_ = a.SetElement(int(coords[k])%nr, (int(coords[k])/3)%nc, int64(vals[k]))
		}
		csr := a.materializedCSR()
		csc := a.materializedCSC()
		if csr.nvals() != csc.nvals() {
			return false
		}
		for k := 0; k < csc.nvecs(); k++ {
			col := csc.majorOf(k)
			ci, cx := csc.vec(k)
			for u := range ci {
				v, err := a.GetElement(ci[u], col)
				if err != nil || v != cx[u] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
