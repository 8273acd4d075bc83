package grb_test

// The two halves of the zero-cost observation contract, asserted from
// outside the package:
//
//  1. Tracing never changes results. A traced masked MxM over a power-law
//     graph serializes to exactly the bytes of the untraced run, at
//     SetParallelism(1) and SetParallelism(8). Record emission happens
//     strictly after kernel output is computed, so any divergence here
//     means an observer leaked into kernel control flow.
//  2. Disabled observation is free. With no observer installed the per-op
//     guard is one atomic load and a nil check; the no-pending Wait —
//     the guard's hottest host — must not allocate.
//
// These run under -race in CI; the race detector covers the Set/Active
// publication and the Trace ring's mutex against parallel kernels.

import (
	"bytes"
	"slices"
	"testing"

	"lagraph/internal/gen"
	"lagraph/internal/grb"
	"lagraph/internal/obs"
)

// tracedMxMBytes runs the masked MxM workload at parallelism p, with or
// without a process-wide trace observer, and returns the serialized result.
func tracedMxMBytes(t *testing.T, p int, traced bool) []byte {
	t.Helper()
	a := gen.PowerLaw(plN, plEdges, plAlpha, gen.Config{Seed: 71, NoSelfLoops: true}).Matrix()
	mask := gen.PowerLaw(plN, plEdges/2, plAlpha, gen.Config{Seed: 72}).BoolMatrix()
	if traced {
		prev := obs.Set(obs.NewTrace(0))
		defer obs.Set(prev)
	}
	var out []byte
	atParallelism(p, func() {
		c := grb.MustMatrix[float64](plN, plN)
		if err := grb.MxM(c, mask, nil, grb.PlusTimes[float64](), a, a, nil); err != nil {
			t.Fatal(err)
		}
		out = serializedMatrix(t, c)
	})
	return out
}

// TestTracedMxMBitwiseIdentical: the four (parallelism, traced)
// combinations of a masked power-law MxM all serialize identically.
func TestTracedMxMBitwiseIdentical(t *testing.T) {
	base := tracedMxMBytes(t, 1, false)
	for _, c := range []struct {
		name   string
		p      int
		traced bool
	}{
		{"p1 traced", 1, true},
		{"p8 untraced", 8, false},
		{"p8 traced", 8, true},
	} {
		if got := tracedMxMBytes(t, c.p, c.traced); !bytes.Equal(base, got) {
			t.Errorf("%s: serialization differs from p1 untraced (%d vs %d bytes)",
				c.name, len(got), len(base))
		}
	}
}

// TestTracedMxMEmitsRecords is the flip side: the traced run actually
// produced op records with the fields the schema promises.
func TestTracedMxMEmitsRecords(t *testing.T) {
	tr := obs.NewTrace(0)
	prev := obs.Set(tr)
	defer obs.Set(prev)
	_ = tracedMxMBytes(t, 8, false) // observer already installed above
	ops := tr.Ops()
	var mxm *obs.OpRecord
	for i := range ops {
		if ops[i].Op == "mxm" {
			mxm = &ops[i]
			break
		}
	}
	if mxm == nil {
		t.Fatalf("no mxm op record in %d traced ops", len(ops))
	}
	if mxm.Kernel == "" || mxm.Rows != plN || mxm.Cols != plN || !mxm.Masked {
		t.Errorf("mxm record incomplete: %+v", *mxm)
	}
	if mxm.EstFlops <= 0 || mxm.NnzA <= 0 {
		t.Errorf("mxm record missing work estimate: %+v", *mxm)
	}
}

// TestDisabledObserverWaitZeroAlloc: with observation disabled, the
// no-pending Wait — pure guard, no work — performs zero allocations.
func TestDisabledObserverWaitZeroAlloc(t *testing.T) {
	prev := obs.Set(nil)
	defer obs.Set(prev)
	a := gen.PowerLaw(512, 4096, plAlpha, gen.Config{Seed: 73}).Matrix()
	a.Wait()
	v := grb.MustVector[float64](512)
	_ = v.SetElement(3, 1)
	v.Wait()
	if n := testing.AllocsPerRun(200, func() { a.Wait() }); n != 0 {
		t.Errorf("no-pending Matrix.Wait allocates %.1f per call with observation disabled", n)
	}
	if n := testing.AllocsPerRun(200, func() { v.Wait() }); n != 0 {
		t.Errorf("no-pending Vector.Wait allocates %.1f per call with observation disabled", n)
	}
}

// TestDenseRouteWriteRecorded: an unmasked pull whose result clears the
// promotion bar reports the write route "dense" (the kernel's lanes became
// the output) and is what obs.Counters.Bitmap counts; the same kernel
// accumulating into that output reports "inplace", and a result below the
// bar comes back compacted under "adopt".
func TestDenseRouteWriteRecorded(t *testing.T) {
	const n = 64
	a := grb.MustMatrix[float64](n, n)
	for i := 0; i < n; i++ {
		_ = a.SetElement(i, (i+1)%n, 1)
	}
	a.Wait()
	thin := grb.MustMatrix[float64](n, n)
	_ = thin.SetElement(3, 5, 1)
	thin.Wait()
	ones := make([]float64, n)
	for i := range ones {
		ones[i] = 1
	}
	u := grb.DenseVector(ones)
	pull := &grb.Descriptor{Dir: grb.DirPull}

	tr, counters := obs.NewTrace(0), &obs.Counters{}
	for _, ob := range []obs.Observer{tr, counters} {
		prev := obs.Set(ob)
		w := grb.MustVector[float64](n)
		must(t, grb.MxV(w, (*grb.Vector[bool])(nil), nil, grb.PlusTimes[float64](), a, u, pull))
		must(t, grb.MxV(w, (*grb.Vector[bool])(nil), grb.Plus[float64](), grb.PlusTimes[float64](), a, u, pull))
		must(t, grb.MxV(grb.MustVector[float64](n), (*grb.Vector[bool])(nil), nil, grb.PlusTimes[float64](), thin, u, pull))
		obs.Set(prev)
		if dense, _ := w.Forms(); !dense {
			t.Fatal("a full pull result is not dense-held")
		}
	}
	var routes []string
	for _, op := range tr.Ops() {
		if op.Op == "mxv" {
			routes = append(routes, op.Write)
		}
	}
	if want := []string{"dense", "inplace", "adopt"}; !slices.Equal(routes, want) {
		t.Fatalf("write routes %v, want %v", routes, want)
	}
	if got := counters.Snapshot().Bitmap; got != 1 {
		t.Fatalf("Counters.Bitmap = %d after one dense-route write", got)
	}
}
