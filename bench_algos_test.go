package lagraph_test

// Per-algorithm benchmarks covering the §V census beyond the C8 subset,
// plus kernel ablations for the design choices DESIGN.md calls out.

import (
	"testing"

	"lagraph/internal/gen"
	"lagraph/internal/grb"
	"lagraph/internal/lagraph"
)

func smallWeighted() *lagraph.Graph {
	return lagraph.FromEdgeList(
		gen.ErdosRenyi(512, 4096, gen.Config{Seed: 21, Undirected: true, NoSelfLoops: true, MinWeight: 1, MaxWeight: 9}),
		lagraph.Undirected)
}

func BenchmarkAlgo_BFSParents(b *testing.B) {
	_, g, _ := benchGraphs()
	for i := 0; i < b.N; i++ {
		if _, err := lagraph.BFSParents(g, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlgo_MSBFS16(b *testing.B) {
	_, g, _ := benchGraphs()
	sources := make([]int, 16)
	for s := range sources {
		sources[s] = s * 37
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lagraph.MSBFSLevels(g, sources); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlgo_BetweennessBatch8(b *testing.B) {
	g := smallWeighted()
	sources := []int{0, 7, 21, 63, 127, 255, 300, 400}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lagraph.BetweennessCentrality(g, sources); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlgo_KTruss4(b *testing.B) {
	_, g, _ := benchGraphs()
	for i := 0; i < b.N; i++ {
		if _, err := lagraph.KTruss(g, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlgo_KCore(b *testing.B) {
	_, g, _ := benchGraphs()
	for i := 0; i < b.N; i++ {
		if _, err := lagraph.KCore(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlgo_MIS(b *testing.B) {
	_, g, _ := benchGraphs()
	for i := 0; i < b.N; i++ {
		if _, err := lagraph.MIS(g, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlgo_Coloring(b *testing.B) {
	_, g, _ := benchGraphs()
	for i := 0; i < b.N; i++ {
		if _, _, err := lagraph.Coloring(g, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlgo_MarkovClustering(b *testing.B) {
	g := smallWeighted()
	for i := 0; i < b.N; i++ {
		if _, err := lagraph.MarkovClustering(g, 2, 1e-6, 30); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlgo_PeerPressure(b *testing.B) {
	g := smallWeighted()
	for i := 0; i < b.N; i++ {
		if _, err := lagraph.PeerPressure(g, 30); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlgo_LocalCluster(b *testing.B) {
	_, g, _ := benchGraphs()
	for i := 0; i < b.N; i++ {
		if _, err := lagraph.LocalCluster(g, 0, 0.15, 1e-4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlgo_SubgraphCounts(b *testing.B) {
	_, g, _ := benchGraphs()
	for i := 0; i < b.N; i++ {
		if _, err := lagraph.CountSubgraphs(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlgo_CollaborativeFiltering(b *testing.B) {
	// 512 users × 256 items, ~8k observed ratings, rank 8, 5 epochs.
	el := gen.Bipartite(512, 256, 8192, gen.Config{Seed: 22, MinWeight: 1, MaxWeight: 5})
	r := grb.MustMatrix[float64](512, 256)
	for k := range el.Src {
		_ = r.SetElement(el.Src[k], el.Dst[k]-512, el.W[k])
	}
	r.Wait()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lagraph.CollaborativeFiltering(r, 8, 0.05, 0.01, 5, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlgo_DNNLayer(b *testing.B) {
	w := gen.ErdosRenyi(1024, 32*1024, gen.Config{Seed: 23, MinWeight: 0.1, MaxWeight: 1}).Matrix()
	y0 := grb.MustMatrix[float64](256, 1024)
	for i := 0; i < 256; i++ {
		for k := 0; k < 32; k++ {
			_ = y0.SetElement(i, (i*31+k*97)%1024, 1)
		}
	}
	y0.Wait()
	layer := []lagraph.DNNLayer{{W: w}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lagraph.DNNInference(y0, layer, 32); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlgo_HITS(b *testing.B) {
	g, _, _ := benchGraphs()
	for i := 0; i < b.N; i++ {
		if _, err := lagraph.HITSWith(g, lagraph.WithTolerance(1e-6), lagraph.WithMaxIter(50)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlgo_PseudoDiameter(b *testing.B) {
	_, g, _ := benchGraphs()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := lagraph.PseudoDiameter(g, 0, 4); err != nil {
			b.Fatal(err)
		}
	}
}

//
// Ablations.
//

// BenchmarkAblation_MaskedVsUnmaskedTC isolates the benefit of fusing the
// output mask into the multiply for triangle counting.
func BenchmarkAblation_MaskedVsUnmaskedTC(b *testing.B) {
	l, _ := benchTCOperands()
	plusPair := grb.PlusPair[int64, int64, int64]()
	b.Run("masked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := grb.MustMatrix[int64](l.Nrows(), l.Ncols())
			if err := grb.MxM(c, l, nil, plusPair, l, l, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unmasked-then-filter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := grb.MustMatrix[int64](l.Nrows(), l.Ncols())
			if err := grb.MxM[int64, int64, int64, bool](c, nil, nil, plusPair, l, l, nil); err != nil {
				b.Fatal(err)
			}
			f := grb.MustMatrix[int64](l.Nrows(), l.Ncols())
			if err := grb.EWiseMultMatrix[int64, int64, int64, bool](f, nil, nil, grb.Second[int64, int64](), l, c, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_CSCCache measures the cost the column cache saves:
// first pull after a mutation pays a transpose.
func BenchmarkAblation_CSCCache(b *testing.B) {
	_, g, _ := benchGraphs()
	n := g.N()
	frontier := grb.MustVector[bool](n)
	for i := 0; i < n; i += 2 {
		_ = frontier.SetElement(i, true)
	}
	frontier.Wait()
	logical := grb.Semiring[bool, float64, bool]{Add: grb.LOrMonoid(), Mul: grb.First[bool, float64]()}
	pull := &grb.Descriptor{Dir: grb.DirPull}
	b.Run("cold-cache", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			a := g.A.Dup() // fresh matrix: no CSC cache
			b.StartTimer()
			w := grb.MustVector[bool](n)
			if err := grb.VxM(w, (*grb.Vector[bool])(nil), nil, logical, frontier, a, pull); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm-cache", func(b *testing.B) {
		a := g.A.Dup()
		// Prime the cache.
		w := grb.MustVector[bool](n)
		_ = grb.VxM(w, (*grb.Vector[bool])(nil), nil, logical, frontier, a, pull)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w := grb.MustVector[bool](n)
			if err := grb.VxM(w, (*grb.Vector[bool])(nil), nil, logical, frontier, a, pull); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_PendingGranularity shows how batching element updates
// amortizes: one Wait per k insertions.
func BenchmarkAblation_PendingGranularity(b *testing.B) {
	n := 1 << benchScale
	el := gen.ErdosRenyi(n, 1<<12, gen.Config{Seed: 24})
	for _, every := range []int{1, 64, 1 << 30} {
		name := "wait-every-1"
		switch every {
		case 64:
			name = "wait-every-64"
		case 1 << 30:
			name = "wait-once"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a := grb.MustMatrix[float64](n, n)
				for k := range el.Src {
					_ = a.SetElement(el.Src[k], el.Dst[k], el.W[k])
					if (k+1)%every == 0 {
						a.Wait()
					}
				}
				a.Wait()
			}
		})
	}
}

// The masked-mxm direction ablation (A6): the masked products of one batched
// BC from 4 sources on an undirected RMAT-13 — every forward level's
// `next⟨¬visited⟩ = frontier ⊕.⊗ A` and every backward level's
// `t⟨levels[d-1]⟩ = levels[d] ⊕.⊗ Aᵀ`, operands rebuilt from BFS depths,
// without the accumulations between them. Cost leaves the direction to
// MxMAuto's estimates; Polarity forces what the mask's polarity alone used
// to pick — Gustavson under the complemented mask, dot under the positive
// one (the dot both arms share scatters long rows, so the pair isolates the
// choice of direction, not the cost of a dot).
func benchMxMDirection(b *testing.B, polarity bool) {
	g := lagraph.FromEdgeList(gen.RMAT(13, 16, gen.Config{Seed: 7, Undirected: true, NoSelfLoops: true}), lagraph.Undirected)
	sources := []int{3, 1000, 5000, 8000}
	ns, n := len(sources), g.N()
	depths, err := lagraph.MSBFSLevels(g, sources)
	if err != nil {
		b.Fatal(err)
	}
	is, js, ds := depths.ExtractTuples()
	var front, visited []*grb.Matrix[float64]
	for k := range is {
		for len(front) <= int(ds[k]) {
			front = append(front, grb.MustMatrix[float64](ns, n))
			visited = append(visited, grb.MustMatrix[float64](ns, n))
		}
		_ = front[ds[k]].SetElement(is[k], js[k], 1)
	}
	// A pair reached at depth d is visited at every later depth too.
	for k := range is {
		for d := int(ds[k]); d < len(visited); d++ {
			_ = visited[d].SetElement(is[k], js[k], 1)
		}
	}
	for d := range front {
		front[d].Wait()
		visited[d].Wait()
	}
	forward := grb.Descriptor{Replace: true, Comp: true}
	backward := grb.Descriptor{Replace: true, TranB: true}
	if polarity {
		forward.Method, backward.Method = grb.MxMGustavson, grb.MxMDot
	}
	plusFirst := grb.PlusFirst[float64]()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for d := range front {
			next := grb.MustMatrix[float64](ns, n)
			if err := grb.MxM(next, visited[d], nil, plusFirst, front[d], g.A, &forward); err != nil {
				b.Fatal(err)
			}
		}
		for d := len(front) - 1; d >= 1; d-- {
			t := grb.MustMatrix[float64](ns, n)
			if err := grb.MxM(t, front[d-1], nil, plusFirst, front[d], g.A, &backward); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkAblation_MxMDirection_Cost(b *testing.B)     { benchMxMDirection(b, false) }
func BenchmarkAblation_MxMDirection_Polarity(b *testing.B) { benchMxMDirection(b, true) }

// The visible-operators ablation (A7): one product of each shape on an
// undirected RMAT-13, multiplied by a constructor's tagged semiring
// (Tagged: the inline loops of internal/grb/mono.go) and by its
// literal-built twin, which carries no tag and so calls Mul, Add.Op and
// Add.Terminal per product (Literal) — the same kernel, direction and
// chunking either way. mxv is one PageRank sweep, `w = Aᵀ plus.second out`
// (a pull); mxm is SandiaLL's `C⟨L⟩ = L plus.pair L` (mask-first Gustavson).
func benchVisibleOperators(b *testing.B, tagged bool) {
	_, g, _ := benchGraphs()
	n := g.N()
	plusSecond, plusPair := grb.PlusSecond[float64](), grb.PlusPair[int64, int64, int64]()
	if !tagged {
		plusSecond = grb.Semiring[float64, float64, float64]{Add: grb.PlusMonoid[float64](), Mul: grb.Second[float64, float64]()}
		plusPair = grb.Semiring[int64, int64, int64]{Add: grb.PlusMonoid[int64](), Mul: grb.Pair[int64, int64, int64]()}
	}
	b.Run("mxv", func(b *testing.B) {
		out := make([]float64, n)
		for i := range out {
			out[i] = 1 / float64(n)
		}
		u, w := grb.DenseVector(out), grb.MustVector[float64](n)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := grb.MxV(w, (*grb.Vector[bool])(nil), nil, plusSecond, g.A, u, grb.DescT0); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.NEdges()), "ns/product")
	})
	b.Run("mxm", func(b *testing.B) {
		l := grb.MustMatrix[int64](n, n)
		if err := grb.SelectMatrix[int64, bool](l, nil, nil, grb.Tril[int64](-1), g.PatternInt64(), nil); err != nil {
			b.Fatal(err)
		}
		l.Wait()
		gustavson := &grb.Descriptor{Method: grb.MxMGustavson}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := grb.MustMatrix[int64](n, n)
			if err := grb.MxM(c, l, nil, plusPair, l, l, gustavson); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkAblation_VisibleOperators_Tagged(b *testing.B)  { benchVisibleOperators(b, true) }
func BenchmarkAblation_VisibleOperators_Literal(b *testing.B) { benchVisibleOperators(b, false) }
