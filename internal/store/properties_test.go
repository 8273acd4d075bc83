package store

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"lagraph/internal/grb"
	"lagraph/internal/lagraph"
)

// TestPropertyHistoryVsFreshGraph is the differential for the graph's
// cached properties across a write history: seeded insert and remove
// batches, under each dup policy, land through ApplyEdgeBatch in a catalog
// entry, and after every batch each property read inside View must equal
// the same property of a fresh graph built from a model of the edge set.
// A property the batch failed to drop answers for an older generation.
func TestPropertyHistoryVsFreshGraph(t *testing.T) {
	const (
		n       = 24
		batches = 30
		delta   = 2.0
	)
	combine := map[string]func(old, w float64) float64{
		"last": func(_, w float64) float64 { return w },
		"sum":  func(old, w float64) float64 { return old + w },
		"min":  math.Min,
		"max":  math.Max,
	}
	for _, kind := range []lagraph.Kind{lagraph.Directed, lagraph.Undirected} {
		for d, dup := range []string{"last", "sum", "min", "max"} {
			t.Run(fmt.Sprintf("%s/%s", kindName(kind), dup), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(10*d) + int64(kind)))
				_, e := applyTestGraph(t, n, kind)
				model := map[[2]int]float64{}
				set := func(i, j int, w float64, remove bool) {
					for _, k := range [][2]int{{i, j}, {j, i}} {
						if old, ok := model[k]; remove {
							delete(model, k)
						} else if ok {
							model[k] = combine[dup](old, w)
						} else {
							model[k] = w
						}
						if kind == lagraph.Directed || i == j {
							return
						}
					}
				}
				for step := 0; step <= batches; step++ {
					if step > 0 {
						b := EdgeBatch{Name: "g", Dup: dup}
						for k := 1 + rng.Intn(8); k > 0; k-- {
							// Weights are multiples of 0.5 on both sides of
							// delta, so sums are exact in any order.
							op := EdgeOp{Remove: rng.Intn(3) == 0, Src: rng.Intn(n), Dst: rng.Intn(n)}
							if !op.Remove {
								op.Weight = float64(1+rng.Intn(8)) / 2
							}
							b.Ops = append(b.Ops, op)
							set(op.Src, op.Dst, op.Weight, op.Remove)
						}
						if err := e.Ingest(func(g *lagraph.Graph) (bool, error) { return true, ApplyEdgeBatch(g, b) }); err != nil {
							t.Fatal(err)
						}
					}
					want := graphProperties(t, modelGraph(t, n, kind, model), delta)
					var got string
					if err := e.View(func(g *lagraph.Graph) error {
						got = graphProperties(t, g, delta)
						return nil
					}); err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("after batch %d:\n got %s\nwant %s", step, got, want)
					}
				}
			})
		}
	}
}

func kindName(k lagraph.Kind) string {
	if k == lagraph.Directed {
		return "directed"
	}
	return "undirected"
}

// modelGraph builds a graph with exactly the model's edges and no cache.
func modelGraph(t *testing.T, n int, kind lagraph.Kind, model map[[2]int]float64) *lagraph.Graph {
	t.Helper()
	keys := make([][2]int, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		return keys[a][0] < keys[b][0] || keys[a][0] == keys[b][0] && keys[a][1] < keys[b][1]
	})
	is, js, xs := make([]int, len(keys)), make([]int, len(keys)), make([]float64, len(keys))
	for k, key := range keys {
		is[k], js[k], xs[k] = key[0], key[1], model[key]
	}
	a := grb.MustMatrix[float64](n, n)
	if err := a.SetElements(is, js, xs, nil); err != nil {
		t.Fatal(err)
	}
	g, err := lagraph.NewGraph(a, kind)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// graphProperties renders every cached property of g, with values in
// full: the out-degrees, the self-loop count, symmetry and (through
// TriangleCount, undirected only) the prepared triangle; beside them the
// transpose, the pattern (A with every weight 1, as the counting algorithms
// build it), the in-degrees, a column reduce of that pattern, and the
// distances by SSSP at delta from every vertex, which read A itself.
func graphProperties(t *testing.T, g *lagraph.Graph, delta float64) string {
	t.Helper()
	at := grb.MustMatrix[float64](g.N(), g.N())
	p := grb.MustMatrix[int64](g.N(), g.N())
	in := grb.MustVector[int64](g.N())
	if err := grb.Transpose[float64, bool](at, nil, nil, g.A, nil); err != nil {
		t.Fatal(err)
	}
	if err := grb.ApplyMatrix[float64, int64, bool](p, nil, nil, grb.One[float64, int64](), g.A, nil); err != nil {
		t.Fatal(err)
	}
	if err := grb.ReduceMatrixToVector[int64, bool](in, nil, nil, grb.PlusMonoid[int64](), p, grb.DescT0); err != nil {
		t.Fatal(err)
	}
	ai, aj, ax := at.ExtractTuples()
	oi, ox := g.OutDegree().ExtractTuples()
	ii, ix := in.ExtractTuples()
	pi, pj, px := p.ExtractTuples()
	s := fmt.Sprint("AT ", ai, aj, ax, " out ", oi, ox, " in ", ii, ix, " pattern ", pi, pj, px,
		" loops ", g.NSelfLoops(), " symmetric ", g.IsSymmetric())
	for src := 0; src < g.N(); src++ {
		d, err := lagraph.SSSP(g, src, lagraph.WithDelta(delta))
		if err != nil {
			t.Fatal(err)
		}
		di, dx := d.ExtractTuples()
		s += fmt.Sprint(" sssp ", src, di, dx)
	}
	if g.Kind == lagraph.Undirected {
		// The prepared triangle is kept for one plan at a time. The explicit
		// method replaces TCAuto's, and TCAuto's is read last, so the first
		// read after the next batch hits a triangle the batch failed to drop.
		for _, m := range []lagraph.TCMethod{lagraph.TCAuto, lagraph.TCSandiaDot, lagraph.TCAuto} {
			c, err := lagraph.TriangleCount(g, m)
			if err != nil {
				t.Fatal(err)
			}
			s += fmt.Sprint(" tc ", m, c)
		}
	}
	return s
}
