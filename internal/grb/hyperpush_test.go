package grb

import (
	"math/rand"
	"testing"
)

// TestVxMPushOnHugeOutput exercises the push past the lane cap, where the
// frontier is one heap row and memory is O(nnz(u)), by embedding a small
// problem into a 2⁴⁰-wide id space and checking the embedded result matches
// the compact one.
func TestVxMPushOnHugeOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	const m = 40
	const stride = 1 << 35 // scatter ids over a 2^40+ space
	bigN := m * stride

	small := MustMatrix[int64](m, m)
	big := MustMatrix[int64](bigN, bigN)
	for k := 0; k < 200; k++ {
		i, j := rng.Intn(m), rng.Intn(m)
		x := int64(rng.Intn(9) - 4)
		_ = small.SetElement(i, j, x)
		_ = big.SetElement(i*stride, j*stride, x)
	}
	uSmall := MustVector[int64](m)
	uBig := MustVector[int64](bigN)
	for i := 0; i < m; i++ {
		if rng.Float64() < 0.5 {
			x := int64(rng.Intn(5))
			_ = uSmall.SetElement(i, x)
			_ = uBig.SetElement(i*stride, x)
		}
	}

	wSmall := MustVector[int64](m)
	if err := VxM[int64, int64, int64, bool](wSmall, nil, nil, PlusTimes[int64](), uSmall, small, &Descriptor{Dir: DirPush}); err != nil {
		t.Fatal(err)
	}
	wBig := MustVector[int64](bigN)
	if err := VxM[int64, int64, int64, bool](wBig, nil, nil, PlusTimes[int64](), uBig, big, &Descriptor{Dir: DirPush}); err != nil {
		t.Fatal(err)
	}
	si, sx := wSmall.ExtractTuples()
	bi, bx := wBig.ExtractTuples()
	if len(si) != len(bi) {
		t.Fatalf("nvals %d vs %d", len(si), len(bi))
	}
	for k := range si {
		if bi[k] != si[k]*stride || bx[k] != sx[k] {
			t.Fatalf("entry %d: (%d,%d) vs (%d,%d)", k, bi[k], bx[k], si[k]*stride, sx[k])
		}
	}
}

// TestMxMHeapOnHugeOutput checks the auto-chooser routes enormous output
// dimensions away from the dense-accumulator kernel and still gets the
// right answer.
func TestMxMHeapOnHugeOutput(t *testing.T) {
	const stride = 1 << 28
	const m = 12
	bigN := m * stride
	a := MustMatrix[int64](bigN, bigN)
	small := MustMatrix[int64](m, m)
	rng := rand.New(rand.NewSource(82))
	for k := 0; k < 60; k++ {
		i, j := rng.Intn(m), rng.Intn(m)
		x := int64(1 + rng.Intn(4))
		_ = small.SetElement(i, j, x)
		_ = a.SetElement(i*stride, j*stride, x)
	}
	cBig := MustMatrix[int64](bigN, bigN)
	if err := MxM[int64, int64, int64, bool](cBig, nil, nil, PlusTimes[int64](), a, a, nil); err != nil {
		t.Fatal(err)
	}
	cSmall := MustMatrix[int64](m, m)
	if err := MxM[int64, int64, int64, bool](cSmall, nil, nil, PlusTimes[int64](), small, small, nil); err != nil {
		t.Fatal(err)
	}
	if cBig.Nvals() != cSmall.Nvals() {
		t.Fatalf("nvals %d vs %d", cBig.Nvals(), cSmall.Nvals())
	}
	cSmall.Iterate(func(i, j int, x int64) bool {
		v, err := cBig.GetElement(i*stride, j*stride)
		if err != nil || v != x {
			t.Fatalf("c(%d,%d): %v vs %v (err %v)", i, j, v, x, err)
		}
		return true
	})
}

func TestNamedDescriptors(t *testing.T) {
	// The C-API-named descriptor constants carry the right flags.
	if !DescT0.TranA || DescT0.TranB {
		t.Error("DescT0")
	}
	if !DescT1.TranB || DescT1.TranA {
		t.Error("DescT1")
	}
	if !DescR.Replace || DescR.Comp {
		t.Error("DescR")
	}
	if !DescC.Comp || DescC.Replace {
		t.Error("DescC")
	}
	if !DescRC.Comp || !DescRC.Replace {
		t.Error("DescRC")
	}
	if !DescRSC.Comp || !DescRSC.Replace {
		t.Error("DescRSC")
	}
	// Nil descriptor defaults.
	var d *Descriptor
	v := d.get()
	if v.TranA || v.TranB || v.Replace || v.Comp || v.MaskValue {
		t.Error("nil descriptor defaults")
	}
}
