package grb_test

import (
	"math/rand"
	"testing"

	"lagraph/internal/gen"
	"lagraph/internal/grb"
)

// BenchmarkAssembleBatch times what a read after a write pays for the write:
// a 64-tuple batch assembled into an undirected RMAT-14 A (about 425 k
// entries, the e2e benchmark's rmat graph). Three arms: a last-wins batch,
// a Plus batch, and 8 removals of batch positions followed by the batch, so
// the assembly also reclaims zombies. Each timed round writes the same
// positions as the untimed first one, so A's pattern is the same in every
// round.
func BenchmarkAssembleBatch(b *testing.B) {
	base := gen.RMAT(14, 16, gen.Config{Undirected: true, NoSelfLoops: true, MinWeight: 1, MaxWeight: 10, Seed: 1}).Matrix()
	n := base.Nrows()
	rng := rand.New(rand.NewSource(34))
	const batch = 64
	is, js, xs := make([]int, batch), make([]int, batch), make([]float64, batch)
	for k := range is {
		is[k], js[k], xs[k] = rng.Intn(n), rng.Intn(n), float64(1+k%10)
	}
	for _, arm := range []struct {
		name    string
		dup     grb.BinaryOp[float64, float64, float64]
		removes int
	}{
		{"last-wins", nil, 0},
		{"plus", grb.Plus[float64](), 0},
		{"removes", nil, 8},
	} {
		b.Run(arm.name, func(b *testing.B) {
			a := base.Dup()
			round := func() {
				for k := 0; k < arm.removes; k++ {
					if err := a.RemoveElement(is[k], js[k]); err != nil {
						b.Fatal(err)
					}
				}
				if err := a.SetElements(is, js, xs, arm.dup); err != nil {
					b.Fatal(err)
				}
				a.Wait()
			}
			round()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round()
			}
		})
	}
}
