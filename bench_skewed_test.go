// Skewed-degree micro-benchmarks for the work-aware scheduler: power-law
// inputs from internal/gen concentrate nearly all flops in a few hub rows,
// the regime where equal-count partitioning serializes on one worker. Each
// benchmark runs at SetParallelism(1) and at the machine's parallelism so
// `go test -bench=Skewed` prints the scaling directly. The frozen
// bench/history/BENCH_1.json recorded the same workloads when the
// scheduler landed.
package lagraph_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"lagraph/internal/gen"
	"lagraph/internal/grb"
)

const (
	skewN     = 1 << 13 // vertices
	skewM     = 16 * skewN
	skewAlpha = 1.6
)

var (
	onceSkew  sync.Once
	skewA     *grb.Matrix[float64]
	skewFront *grb.Vector[float64]
	skewEdges *gen.EdgeList
	skewKronA *grb.Matrix[float64]
	skewKronB *grb.Matrix[float64]
)

func skewedInputs() {
	onceSkew.Do(func() {
		skewEdges = gen.PowerLaw(skewN, skewM, skewAlpha, gen.Config{Seed: 41, NoSelfLoops: true})
		skewA = skewEdges.Matrix()
		skewA.Wait()
		// A BFS-like frontier holding the hubs plus a spread of leaves:
		// the push step's worst case for equal-count splitting.
		skewFront = grb.MustVector[float64](skewN)
		for i := 0; i < skewN; i += 16 {
			_ = skewFront.SetElement(i, 1)
		}
		for i := 0; i < 64; i++ { // hubs live at the low Zipf ranks
			_ = skewFront.SetElement(i, 1)
		}
		skewFront.Wait()
		skewKronA = gen.PowerLaw(256, 4096, skewAlpha, gen.Config{Seed: 42}).Matrix()
		skewKronB = gen.PowerLaw(64, 1024, skewAlpha, gen.Config{Seed: 43}).Matrix()
		skewKronA.Wait()
		skewKronB.Wait()
	})
}

// benchParallelism yields the worker counts benchmarked: serial, and the
// larger of GOMAXPROCS and 4 (so the scheduler's scaling is visible even
// when the host restricts GOMAXPROCS).
func benchParallelism() []int {
	p := runtime.GOMAXPROCS(0)
	if p < 4 {
		p = 4
	}
	return []int{1, p}
}

func runAtParallelism(b *testing.B, f func()) {
	b.Helper()
	skewedInputs()
	for _, p := range benchParallelism() {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			old := grb.SetParallelism(p)
			defer grb.SetParallelism(old)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f()
			}
		})
	}
}

func BenchmarkSkewedMxMGustavson(b *testing.B) {
	runAtParallelism(b, func() {
		c := grb.MustMatrix[float64](skewN, skewN)
		_ = grb.MxM(c, (*grb.Matrix[bool])(nil), nil, grb.PlusTimes[float64](), skewA, skewA,
			&grb.Descriptor{Method: grb.MxMGustavson})
	})
}

func BenchmarkSkewedMxMDotMasked(b *testing.B) {
	runAtParallelism(b, func() {
		c := grb.MustMatrix[float64](skewN, skewN)
		_ = grb.MxM(c, skewA, nil, grb.PlusTimes[float64](), skewA, skewA,
			&grb.Descriptor{Method: grb.MxMDot, TranB: true})
	})
}

func BenchmarkSkewedMxMHeap(b *testing.B) {
	runAtParallelism(b, func() {
		c := grb.MustMatrix[float64](skewN, skewN)
		_ = grb.MxM(c, (*grb.Matrix[bool])(nil), nil, grb.PlusTimes[float64](), skewA, skewA,
			&grb.Descriptor{Method: grb.MxMHeap})
	})
}

// BenchmarkSkewedPush is the BFS push phase in isolation: SpMSpV from a
// hub-heavy frontier, previously fully serial.
func BenchmarkSkewedPush(b *testing.B) {
	runAtParallelism(b, func() {
		w := grb.MustVector[float64](skewN)
		_ = grb.VxM(w, (*grb.Vector[bool])(nil), nil, grb.PlusTimes[float64](), skewFront, skewA,
			&grb.Descriptor{Dir: grb.DirPush})
	})
}

func BenchmarkSkewedPull(b *testing.B) {
	runAtParallelism(b, func() {
		w := grb.MustVector[float64](skewN)
		_ = grb.VxM(w, (*grb.Vector[bool])(nil), nil, grb.PlusTimes[float64](), skewFront, skewA,
			&grb.Descriptor{Dir: grb.DirPull})
	})
}

func BenchmarkSkewedTranspose(b *testing.B) {
	runAtParallelism(b, func() {
		c := grb.MustMatrix[float64](skewN, skewN)
		_ = grb.Transpose[float64, bool](c, nil, nil, skewA, nil)
	})
}

// BenchmarkSkewedBuild is batch assembly (§II-A): the two counting passes
// that order the tuples behind Build and pending-tuple Wait, one serial
// route at every parallelism.
func BenchmarkSkewedBuild(b *testing.B) {
	runAtParallelism(b, func() {
		a := grb.MustMatrix[float64](skewN, skewN)
		_ = a.Build(skewEdges.Src, skewEdges.Dst, skewEdges.W, grb.First[float64, float64]())
	})
}

func BenchmarkSkewedKronecker(b *testing.B) {
	runAtParallelism(b, func() {
		c := grb.MustMatrix[float64](256*64, 256*64)
		_ = grb.Kronecker[float64, float64, float64, bool](c, nil, nil, grb.Times[float64](),
			skewKronA, skewKronB, nil)
	})
}
