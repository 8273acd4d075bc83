package lagraph_test

// The §V census — the paper's target algorithm list, one row per
// algorithm — plus kernel ablations for the design choices DESIGN.md calls
// out.

import (
	"fmt"
	"testing"

	"lagraph/internal/gen"
	"lagraph/internal/grb"
	"lagraph/internal/lagraph"
)

// censusInputs are what the census rows read: RMAT at a given scale and
// edge factor 16 (undirected seed 12, directed seed 11), a weighted
// Erdős–Rényi graph of smallN vertices, and fixed-size inputs for the rows
// that take a lattice or a matrix of their own.
type censusInputs struct {
	undir, dir, small, grid         *lagraph.Graph
	bipartite, ratings, dnnIn, dnnW *grb.Matrix[float64]
}

func newCensusInputs(scale, smallN int) *censusInputs {
	in := &censusInputs{
		undir: lagraph.FromEdgeList(gen.RMAT(scale, benchEF, gen.Config{Seed: 12, Undirected: true, NoSelfLoops: true}), lagraph.Undirected),
		dir:   lagraph.FromEdgeList(gen.RMAT(scale, benchEF, gen.Config{Seed: 11, NoSelfLoops: true}), lagraph.Directed),
		small: lagraph.FromEdgeList(gen.ErdosRenyi(smallN, 8*smallN,
			gen.Config{Seed: 13, Undirected: true, NoSelfLoops: true, MinWeight: 1, MaxWeight: 5}), lagraph.Undirected),
		grid:      lagraph.FromEdgeList(gen.Grid2D(32, 32, gen.Config{Seed: 16, Undirected: true, MinWeight: 1, MaxWeight: 3}), lagraph.Undirected),
		bipartite: biadjacency(256, gen.Bipartite(256, 256, 2048, gen.Config{Seed: 14})),
		ratings:   biadjacency(128, gen.Bipartite(128, 96, 1500, gen.Config{Seed: 18, MinWeight: 1, MaxWeight: 5})),
		dnnIn:     grb.MustMatrix[float64](64, 128),
		dnnW:      gen.ErdosRenyi(128, 2048, gen.Config{Seed: 15, MinWeight: 0.1, MaxWeight: 1}).Matrix(),
	}
	for i := 0; i < 64; i++ {
		_ = in.dnnIn.SetElement(i, (i*3)%128, 1)
	}
	in.dnnIn.Wait()
	return in
}

// biadjacency is a bipartite edge list's n1×n2 matrix (gen.Bipartite
// numbers the right side from n1).
func biadjacency(n1 int, el *gen.EdgeList) *grb.Matrix[float64] {
	m := grb.MustMatrix[float64](n1, el.N-n1)
	for k := range el.Src {
		_ = m.SetElement(el.Src[k], el.Dst[k]-n1, el.W[k])
	}
	m.Wait()
	return m
}

// nvals and components turn an algorithm's result into a summary line: its
// entry count, or its number of distinct labels. An error passes through.
func nvals(format string) func(interface{ Nvals() int }, error) (string, error) {
	return func(v interface{ Nvals() int }, err error) (string, error) {
		if err != nil {
			return "", err
		}
		return fmt.Sprintf(format, v.Nvals()), nil
	}
}

func components(format string) func(*grb.Vector[int64], error) (string, error) {
	return func(l *grb.Vector[int64], err error) (string, error) {
		if err != nil {
			return "", err
		}
		return fmt.Sprintf(format, lagraph.CountComponents(l)), nil
	}
}

// census is §V's algorithm list: a row's name, and a run that reads its
// input from censusInputs and returns a summary line or an error.
// TestCensus runs every row on toy inputs; BenchmarkCensus times every row
// at scale 13 and logs its summary, the numbers EXPERIMENTS.md records.
// Adding an algorithm is one row here plus its case in cmd/lagraph run.
var census = []struct {
	name string
	run  func(in *censusInputs) (string, error)
}{
	{"bfs", func(in *censusInputs) (string, error) { return nvals("reached %d")(lagraph.BFSLevels(in.undir, 0)) }},
	{"parents", func(in *censusInputs) (string, error) { return nvals("tree size %d")(lagraph.BFSParents(in.undir, 0)) }},
	{"msbfs", func(in *censusInputs) (string, error) {
		return nvals("%d (source,vertex) pairs")(lagraph.MSBFSLevels(in.undir, []int{0, 1, 2, 3, 4, 5, 6, 7}))
	}},
	{"sssp", func(in *censusInputs) (string, error) {
		return nvals("reached %d")(lagraph.SSSP(in.small, 0, lagraph.WithDelta(2)))
	}},
	{"bellmanford", func(in *censusInputs) (string, error) {
		return nvals("reached %d")(lagraph.SSSPBellmanFord(in.small, 0))
	}},
	{"apsp", func(in *censusInputs) (string, error) { return nvals("%d finite pairs")(lagraph.APSP(in.small)) }},
	{"astar", func(in *censusInputs) (string, error) {
		_, cost, ok, err := lagraph.AStar(in.grid, 0, 32*32-1, lagraph.GridManhattan(32, 32*32-1))
		return fmt.Sprintf("reachable=%v cost=%.0f", ok, cost), err
	}},
	{"bc", func(in *censusInputs) (string, error) {
		return nvals("%d vertices scored")(lagraph.BetweennessCentrality(in.small, []int{0, 1, 2, 3}))
	}},
	{"tc", func(in *censusInputs) (string, error) {
		c, err := lagraph.TriangleCount(in.undir, lagraph.TCSandiaDot)
		return fmt.Sprintf("%d triangles", c), err
	}},
	{"ktruss", func(in *censusInputs) (string, error) { return nvals("4-truss %d edges")(lagraph.KTruss(in.undir, 4)) }},
	{"kcore", func(in *censusInputs) (string, error) {
		d, err := lagraph.Coreness(in.undir)
		return fmt.Sprintf("degeneracy %d", d), err
	}},
	{"subgraph", func(in *censusInputs) (string, error) {
		sc, err := lagraph.CountSubgraphs(in.undir)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%d tri / %d wedges", sc.TotalTriangles, sc.TotalWedges), nil
	}},
	{"cc", func(in *censusInputs) (string, error) {
		return components("%d components")(lagraph.ConnectedComponentsFastSV(in.undir))
	}},
	{"pagerank", func(in *censusInputs) (string, error) {
		r, err := lagraph.PageRankWith(in.dir, lagraph.WithDamping(0.85), lagraph.WithTolerance(1e-8), lagraph.WithMaxIter(100))
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%d iterations", r.Iterations), nil
	}},
	{"hits", func(in *censusInputs) (string, error) {
		r, err := lagraph.HITSWith(in.dir, lagraph.WithTolerance(1e-8), lagraph.WithMaxIter(100))
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%d iterations", r.Iterations), nil
	}},
	{"diameter", func(in *censusInputs) (string, error) {
		d, _, _, err := lagraph.PseudoDiameter(in.undir, 0, 6)
		return fmt.Sprintf("diameter ≥ %d", d), err
	}},
	{"coloring", func(in *censusInputs) (string, error) {
		_, used, err := lagraph.Coloring(in.undir, 1)
		return fmt.Sprintf("%d colors", used), err
	}},
	{"mis", func(in *censusInputs) (string, error) { return nvals("%d members")(lagraph.MIS(in.undir, 1)) }},
	{"matching", func(in *censusInputs) (string, error) {
		rowMate, _, err := lagraph.BipartiteMatching(in.bipartite)
		return nvals("%d pairs")(rowMate, err)
	}},
	{"mcl", func(in *censusInputs) (string, error) {
		return components("%d clusters")(lagraph.MarkovClustering(in.small, 2, 1e-6, 50))
	}},
	{"peerpressure", func(in *censusInputs) (string, error) {
		return components("%d clusters")(lagraph.PeerPressure(in.small, 50))
	}},
	{"localcluster", func(in *censusInputs) (string, error) {
		r, err := lagraph.LocalCluster(in.small, 0, 0.15, 1e-4)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%d members, φ=%.3f", len(r.Members), r.Conductance), nil
	}},
	{"dnn", func(in *censusInputs) (string, error) {
		return nvals("%d activations")(lagraph.DNNInference(in.dnnIn, []lagraph.DNNLayer{{W: in.dnnW}, {W: in.dnnW}}, 32))
	}},
	{"cf", func(in *censusInputs) (string, error) {
		m, err := lagraph.CollaborativeFiltering(in.ratings, 4, 0.005, 0.01, 40, 1)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("rmse %.2f→%.2f", m.RMSE[0], m.RMSE[len(m.RMSE)-1]), nil
	}},
}

// TestCensus runs every census row on toy inputs, one subtest per row
// (TestCensus/<row>, as BenchmarkCensus/<row>), so a row that errors or
// panics fails go test ./... under its own name.
func TestCensus(t *testing.T) {
	in := newCensusInputs(6, 64)
	for _, row := range census {
		t.Run(row.name, func(t *testing.T) {
			if out, err := row.run(in); err != nil || out == "" {
				t.Errorf("%q, %v", out, err)
			}
		})
	}
}

// BenchmarkCensus times every census row at scale 13, with the 256-vertex
// ER graph, and logs the row's summary line.
func BenchmarkCensus(b *testing.B) {
	in := newCensusInputs(benchScale, 256)
	for _, row := range census {
		b.Run(row.name, func(b *testing.B) {
			var out string
			for i := 0; i < b.N; i++ {
				var err error
				if out, err = row.run(in); err != nil {
					b.Fatal(err)
				}
			}
			b.Log(out)
		})
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
		if err := grb.SelectMatrix[int64, bool](l, nil, nil, grb.Tril[int64](-1), patternOf(g), nil); err != nil {
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
