// bench-tables regenerates every table, figure and quantitative claim of
// the paper as plain text; its output is the source material for
// EXPERIMENTS.md. Pass -scale to change the workload size and -table to
// print a single table (1, 2, fig2, c1..c8, census, all). It measures no
// performance trajectory: bench/e2e is the repository's one benchmark.
//
//	go run ./cmd/bench-tables -scale 13
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"lagraph/internal/baseline"
	"lagraph/internal/gen"
	"lagraph/internal/grb"
	"lagraph/internal/lagraph"
	"lagraph/internal/loccount"
)

var (
	scale = flag.Int("scale", 13, "RMAT scale (2^scale vertices)")
	ef    = flag.Int("ef", 16, "RMAT edge factor")
	table = flag.String("table", "all", "which table to print: 1,2,fig2,c1..c8,census,all")
)

// tables lists the paper artefacts in print order.
var tables = []struct {
	name string
	f    func()
}{
	{"1", tableI}, {"2", tableII}, {"fig2", fig2},
	{"c1", c1}, {"c2", c2}, {"c3", c3}, {"c4", c4},
	{"c5", c5}, {"c6", c6}, {"c7", c7}, {"c8", c8},
	{"census", census},
}

func main() {
	flag.Parse()
	fmt.Printf("lagraph-go experiment harness — RMAT scale %d, edge factor %d, GOMAXPROCS=%d\n\n",
		*scale, *ef, runtime.GOMAXPROCS(0))
	ran := false
	for _, t := range tables {
		if *table == "all" || *table == t.name {
			t.f()
			fmt.Println()
			ran = true
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "bench-tables: unknown -table %q\n", *table)
		os.Exit(2)
	}
}

// timeIt runs f a few times and returns the best wall time.
func timeIt(reps int, f func()) time.Duration {
	best := time.Duration(1<<62 - 1)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		f()
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best
}

func undirGraph(seed int64) *lagraph.Graph {
	return lagraph.FromEdgeList(
		gen.RMAT(*scale, *ef, gen.Config{Seed: seed, Undirected: true, NoSelfLoops: true}),
		lagraph.Undirected)
}

func dirGraph(seed int64) *lagraph.Graph {
	return lagraph.FromEdgeList(
		gen.RMAT(*scale, *ef, gen.Config{Seed: seed, NoSelfLoops: true}), lagraph.Directed)
}

func tableI() {
	fmt.Println("── Table I: the GraphBLAS operation set, one timing per operation ──")
	g := dirGraph(1)
	n := g.N()
	at := grb.MustMatrix[float64](n, n)
	if err := grb.Transpose[float64, bool](at, nil, nil, g.A, nil); err != nil {
		panic(err)
	}
	a := g.PatternInt64()
	v := make([]int64, n)
	for i := range v {
		v[i] = int64(i)
	}
	vec := grb.DenseVector(v)
	plusPair := grb.PlusPair[int64, int64, int64]()
	minSecond := grb.Semiring[float64, int64, int64]{Add: grb.MinMonoid[int64](), Mul: grb.Second[float64, int64]()}
	minFirst := grb.Semiring[int64, float64, int64]{Add: grb.MinMonoid[int64](), Mul: grb.First[int64, float64]()}

	rows := []struct {
		op string
		f  func()
	}{
		{"mxm (masked, plus.pair)", func() {
			c := grb.MustMatrix[int64](n, n)
			_ = grb.MxM(c, a, nil, plusPair, a, a, nil)
		}},
		{"mxv (min.second)", func() {
			w := grb.MustVector[int64](n)
			_ = grb.MxV(w, (*grb.Vector[bool])(nil), nil, minSecond, g.A, vec, nil)
		}},
		{"vxm (min.first)", func() {
			w := grb.MustVector[int64](n)
			_ = grb.VxM(w, (*grb.Vector[bool])(nil), nil, minFirst, vec, g.A, nil)
		}},
		{"eWiseAdd (plus)", func() {
			c := grb.MustMatrix[float64](n, n)
			_ = grb.EWiseAddMatrix[float64, bool](c, nil, nil, grb.Plus[float64](), g.A, at, nil)
		}},
		{"eWiseMult (times)", func() {
			c := grb.MustMatrix[float64](n, n)
			_ = grb.EWiseMultMatrix[float64, float64, float64, bool](c, nil, nil, grb.Times[float64](), g.A, at, nil)
		}},
		{"reduce (rows, plus)", func() {
			w := grb.MustVector[float64](n)
			_ = grb.ReduceMatrixToVector[float64, bool](w, nil, nil, grb.PlusMonoid[float64](), g.A, nil)
		}},
		{"apply (2x)", func() {
			c := grb.MustMatrix[float64](n, n)
			_ = grb.ApplyMatrix[float64, float64, bool](c, nil, nil, func(x float64) float64 { return 2 * x }, g.A, nil)
		}},
		{"transpose", func() {
			c := grb.MustMatrix[float64](n, n)
			_ = grb.Transpose[float64, bool](c, nil, nil, g.A, nil)
		}},
		{"extract (n/4 × n/4)", func() {
			rows := make([]int, n/4)
			cols := make([]int, n/4)
			for k := range rows {
				rows[k] = (k * 3) % n
				cols[k] = (k * 7) % n
			}
			c := grb.MustMatrix[float64](len(rows), len(cols))
			_ = grb.ExtractMatrix[float64, bool](c, nil, nil, g.A, rows, cols, nil)
		}},
		{"assign (512×512 region)", func() {
			sub := gen.ErdosRenyi(512, 4096, gen.Config{Seed: 3}).Matrix()
			rws := make([]int, 512)
			cls := make([]int, 512)
			for k := range rws {
				rws[k] = (k * 5) % n
				cls[k] = (k * 11) % n
			}
			c := g.A.Dup()
			_ = grb.AssignMatrix[float64, bool](c, nil, nil, sub, rws, cls, nil)
		}},
		{"select (tril)", func() {
			c := grb.MustMatrix[float64](n, n)
			_ = grb.SelectMatrix[float64, bool](c, nil, nil, grb.Tril[float64](-1), g.A, nil)
		}},
	}
	fmt.Printf("%-28s %14s\n", "operation", "best of 3")
	for _, r := range rows {
		fmt.Printf("%-28s %14v\n", r.op, timeIt(3, r.f))
	}
}

func tableII() {
	fmt.Println("── Table II: lines of application code (see also cmd/loc) ──")
	funcs, _, err := loccount.CountDir("internal/lagraph")
	if err != nil {
		fmt.Println("  (run from the repository root to count sources:", err, ")")
		return
	}
	byName := loccount.ByName(funcs)
	fmt.Printf("%-28s %7s %8s %11s %8s\n", "Algorithm", "Ligra", "GraphIt", "GraphBLAS", "lagraph-go")
	fmt.Printf("%-28s %7s %8s %11s %8d\n", "Breadth-first search", "29", "22", "25", byName["BFSLevelSimple"])
	fmt.Printf("%-28s %7s %8s %11s %8d\n", "Single-source shortest-path", "55", "25", "25", byName["SSSPBellmanFord"])
	fmt.Printf("%-28s %7s %8s %11s %8d\n", "Local graph clustering", "84", "N/A", "45", byName["LocalCluster"])
}

func fig2() {
	fmt.Println("── Fig. 2: level BFS on the GraphBLAS API ──")
	g := undirGraph(2)
	var levels *grb.Vector[int32]
	d := timeIt(3, func() {
		levels, _ = lagraph.BFSLevelSimple(g, 0)
	})
	fmt.Printf("graph: %d vertices, %d edges\n", g.N(), g.NEdges())
	fmt.Printf("level BFS: reached %d vertices in %v\n", levels.Nvals(), d)
}

func c1() {
	fmt.Println("── C1: e×setElement vs one build (pending tuples, §II-A) ──")
	n := 1 << *scale
	el := gen.ErdosRenyi(n, 16*n, gen.Config{Seed: 9})
	dSet := timeIt(3, func() {
		a := grb.MustMatrix[float64](n, n)
		for k := range el.Src {
			_ = a.SetElement(el.Src[k], el.Dst[k], el.W[k])
		}
		a.Wait()
	})
	dBuild := timeIt(3, func() {
		a := grb.MustMatrix[float64](n, n)
		_ = a.Build(el.Src, el.Dst, el.W, grb.Second[float64, float64]())
	})
	fmt.Printf("e = %d tuples into an empty %d×%d matrix\n", len(el.Src), n, n)
	fmt.Printf("setElement loop: %12v\n", dSet)
	fmt.Printf("single build:    %12v   (ratio %.2fx — paper: \"just as fast\")\n",
		dBuild, float64(dSet)/float64(dBuild))
}

func c2() {
	fmt.Println("── C2: submatrix assignment C(I,J)=A vs naive per-element rebuild (§II-A) ──")
	n := 4096
	a := gen.ErdosRenyi(n, 16*n, gen.Config{Seed: 5}).Matrix()
	sub := gen.ErdosRenyi(512, 4096, gen.Config{Seed: 6}).Matrix()
	rows := make([]int, 512)
	cols := make([]int, 512)
	for k := range rows {
		rows[k] = (k * 7) % n
		cols[k] = (k * 5) % n
	}
	dAssign := timeIt(3, func() {
		c := a.Dup()
		_ = grb.AssignMatrix[float64, bool](c, nil, nil, sub, rows, cols, nil)
	})
	si, sj, sx := sub.ExtractTuples()
	dNaive := timeIt(1, func() {
		c := a.Dup()
		for k := range si {
			_ = c.SetElement(rows[si[k]], cols[sj[k]], sx[k])
			c.Wait() // the materialize-per-element strategy of the claim
		}
	})
	fmt.Printf("C is %d×%d with %d entries; |I|=|J|=512, nnz(A)=%d\n", n, n, a.Nvals(), len(si))
	fmt.Printf("batched assign:      %12v\n", dAssign)
	fmt.Printf("per-element rebuild: %12v   (speedup %.0fx — paper: \"100x faster than MATLAB\")\n",
		dNaive, float64(dNaive)/float64(dAssign))
}

func c3() {
	fmt.Println("── C3: the three mxm kernels — Gustavson / dot / heap (§II-A) ──")
	g := undirGraph(2)
	aPat := g.PatternInt64()
	n := aPat.Nrows()
	l := grb.MustMatrix[int64](n, n)
	u := grb.MustMatrix[int64](n, n)
	_ = grb.SelectMatrix[int64, bool](l, nil, nil, grb.Tril[int64](-1), aPat, nil)
	_ = grb.SelectMatrix[int64, bool](u, nil, nil, grb.Triu[int64](1), aPat, nil)
	plusPair := grb.PlusPair[int64, int64, int64]()
	cases := []struct {
		name   string
		method grb.MxMMethod
		masked bool
		tranB  bool
	}{
		{"Gustavson, unmasked (L·L)", grb.MxMGustavson, false, false},
		{"Gustavson, masked ⟨L⟩", grb.MxMGustavson, true, false},
		{"heap, unmasked (L·L)", grb.MxMHeap, false, false},
		{"heap, masked ⟨L⟩", grb.MxMHeap, true, false},
		{"dot, masked ⟨L⟩ (L·Uᵀ)", grb.MxMDot, true, true},
	}
	for _, tc := range cases {
		d := timeIt(3, func() {
			c := grb.MustMatrix[int64](n, n)
			desc := &grb.Descriptor{Method: tc.method, TranB: tc.tranB}
			var mask *grb.Matrix[int64]
			if tc.masked {
				mask = l
			}
			rhs := l
			if tc.tranB {
				rhs = u
			}
			_ = grb.MxM(c, mask, nil, plusPair, l, rhs, desc)
		})
		fmt.Printf("%-28s %12v\n", tc.name, d)
	}
}

func c4() {
	fmt.Println("── C4: early-exit terminal monoids (§II-A) ──")
	g := undirGraph(2)
	n := g.N()
	frontier := grb.MustVector[bool](n)
	for i := 0; i < n; i += 2 {
		_ = frontier.SetElement(i, true)
	}
	frontier.Wait()
	withTerminal := grb.Semiring[bool, float64, bool]{Add: grb.LOrMonoid(), Mul: grb.First[bool, float64]()}
	noTerminal := withTerminal
	noTerminal.Add.Terminal = nil
	pull := &grb.Descriptor{Dir: grb.DirPull}
	dWith := timeIt(3, func() {
		w := grb.MustVector[bool](n)
		_ = grb.VxM(w, (*grb.Vector[bool])(nil), nil, withTerminal, frontier, g.A, pull)
	})
	dWithout := timeIt(3, func() {
		w := grb.MustVector[bool](n)
		_ = grb.VxM(w, (*grb.Vector[bool])(nil), nil, noTerminal, frontier, g.A, pull)
	})
	fmt.Printf("pull step, LOR monoid with terminal:    %12v\n", dWith)
	fmt.Printf("pull step, LOR monoid without terminal: %12v   (early exit: %.1fx)\n",
		dWithout, float64(dWithout)/float64(dWith))
}

func c5() {
	fmt.Println("── C5: push vs pull vs direction-optimized BFS (§II-E) ──")
	g := undirGraph(2)
	for _, tc := range []struct {
		name string
		dir  grb.Direction
	}{{"push only", grb.DirPush}, {"pull only", grb.DirPull}, {"direction-optimized", grb.DirAuto}} {
		d := timeIt(3, func() {
			_, _ = lagraph.BFSLevels(g, 0, lagraph.WithDirection(tc.dir))
		})
		fmt.Printf("%-22s %12v\n", tc.name, d)
	}
	var stats lagraph.BFSStats
	_, _ = lagraph.BFSLevels(g, 0, lagraph.WithStats(&stats))
	fmt.Println("per-iteration frontier sizes and chosen direction:")
	for i, nf := range stats.FrontierSizes {
		dir := "push"
		if stats.Directions[i] == grb.DirPull {
			dir = "pull"
		}
		fmt.Printf("  iter %2d: %8d  %s\n", i, nf, dir)
	}
}

func c6() {
	fmt.Println("── C6: hypersparse O(e) storage at enormous dimension (§II-A) ──")
	e := 1 << 15
	el := gen.ErdosRenyi(1<<14, e, gen.Config{Seed: 7})
	dHyper := timeIt(3, func() {
		n := 1 << 40
		a := grb.MustMatrix[float64](n, n)
		for k := range el.Src {
			_ = a.SetElement(el.Src[k]<<20, el.Dst[k]<<20, el.W[k])
		}
		a.Wait()
	})
	dStd := timeIt(3, func() {
		n := 1 << 14
		a := grb.MustMatrix[float64](n, n)
		for k := range el.Src {
			_ = a.SetElement(el.Src[k], el.Dst[k], el.W[k])
		}
		a.Wait()
	})
	fmt.Printf("build %d entries, hypersparse, n=2^40: %12v\n", e, dHyper)
	fmt.Printf("build %d entries, standard CSR, n=2^14: %11v\n", e, dStd)
	fmt.Println("(a standard CSR at n=2^40 would need a 8 TiB pointer array)")
}

func c7() {
	fmt.Println("── C7: O(1) move-based import/export vs Ω(e) extractTuples (§IV) ──")
	g := undirGraph(2)
	a := g.A.Dup()
	dMove := timeIt(5, func() {
		nr, nc, p, i, x := a.ExportCSR()
		a, _ = grb.ImportCSR(nr, nc, p, i, x, true)
	})
	dCopy := timeIt(3, func() {
		is, js, xs := a.ExtractTuples()
		c := grb.MustMatrix[float64](a.Nrows(), a.Ncols())
		_ = c.Build(is, js, xs, nil)
		a = c
	})
	fmt.Printf("export+import (move):        %12v\n", dMove)
	fmt.Printf("extractTuples+build (copy):  %12v   (move is %.0fx faster)\n",
		dCopy, float64(dCopy)/float64(dMove))
}

func c8() {
	fmt.Println("── C8: GraphBLAS algorithms vs classic baselines (§III) ──")
	gd := dirGraph(1)
	gu := undirGraph(2)
	gw := lagraph.FromEdgeList(
		gen.RMAT(*scale, *ef, gen.Config{Seed: 3, Undirected: true, NoSelfLoops: true, MinWeight: 1, MaxWeight: 10}),
		lagraph.Undirected)
	bd := baseline.FromMatrix(gd.A.Dup())
	bu := baseline.FromMatrix(gu.A.Dup())
	bw := baseline.FromMatrix(gw.A.Dup())
	gu.A.Wait()

	fmt.Printf("%-18s %14s %14s %8s\n", "algorithm", "graphblas", "baseline", "ratio")
	row := func(name string, fg, fb func()) {
		dg := timeIt(3, fg)
		db := timeIt(3, fb)
		fmt.Printf("%-18s %14v %14v %7.1fx\n", name, dg, db, float64(dg)/float64(db))
	}
	row("bfs",
		func() { _, _ = lagraph.BFSLevels(gu, 0) },
		func() { baseline.BFSLevels(bu, 0) })
	row("sssp",
		func() { _, _ = lagraph.SSSP(gw, 0, lagraph.WithDelta(4)) },
		func() { baseline.Dijkstra(bw, 0) })
	row("cc",
		func() { _, _ = lagraph.ConnectedComponentsFastSV(gu) },
		func() { baseline.ConnectedComponents(bu) })
	row("pagerank(20it)",
		func() {
			_, _ = lagraph.PageRankWith(gd, lagraph.WithDamping(0.85), lagraph.WithTolerance(1e-30), lagraph.WithMaxIter(20))
		},
		func() { baseline.PageRank(bd, 0.85, 20) })
	row("triangles",
		func() { _, _ = lagraph.TriangleCount(gu, lagraph.TCSandiaDot) },
		func() { baseline.TriangleCount(bu) })
}

func census() {
	fmt.Println("── §V census: the LAGraph target algorithm list, exercised ──")
	gu := undirGraph(12)
	gd := dirGraph(11)
	small := lagraph.FromEdgeList(
		gen.ErdosRenyi(256, 2048, gen.Config{Seed: 13, Undirected: true, NoSelfLoops: true, MinWeight: 1, MaxWeight: 5}),
		lagraph.Undirected)

	type entry struct {
		name string
		run  func() (string, error)
	}
	entries := []entry{
		{"BFS (levels, DO)", func() (string, error) {
			l, err := lagraph.BFSLevels(gu, 0)
			return fmt.Sprintf("reached %d", l.Nvals()), err
		}},
		{"BFS (parents)", func() (string, error) {
			p, err := lagraph.BFSParents(gu, 0)
			return fmt.Sprintf("tree size %d", p.Nvals()), err
		}},
		{"SSSP delta-stepping", func() (string, error) {
			d, err := lagraph.SSSP(small, 0, lagraph.WithDelta(2))
			return fmt.Sprintf("reached %d", d.Nvals()), err
		}},
		{"SSSP Bellman-Ford", func() (string, error) {
			d, err := lagraph.SSSPBellmanFord(small, 0)
			return fmt.Sprintf("reached %d", d.Nvals()), err
		}},
		{"All-pairs shortest paths", func() (string, error) {
			d, err := lagraph.APSP(small)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%d finite pairs", d.Nvals()), nil
		}},
		{"Betweenness centrality", func() (string, error) {
			bc, err := lagraph.BetweennessCentrality(small, []int{0, 1, 2, 3})
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%d vertices scored", bc.Nvals()), nil
		}},
		{"Triangle counting ×4", func() (string, error) {
			c, err := lagraph.TriangleCount(gu, lagraph.TCSandiaDot)
			return fmt.Sprintf("%d triangles", c), err
		}},
		{"k-truss", func() (string, error) {
			tr, err := lagraph.KTruss(gu, 4)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("4-truss %d edges", tr.Nvals()), nil
		}},
		{"Connected components", func() (string, error) {
			l, err := lagraph.ConnectedComponentsFastSV(gu)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%d components", lagraph.CountComponents(l)), nil
		}},
		{"PageRank", func() (string, error) {
			r, err := lagraph.PageRankWith(gd, lagraph.WithDamping(0.85), lagraph.WithTolerance(1e-8), lagraph.WithMaxIter(100))
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%d iterations", r.Iterations), nil
		}},
		{"Graph coloring (JP)", func() (string, error) {
			_, used, err := lagraph.Coloring(gu, 1)
			return fmt.Sprintf("%d colors", used), err
		}},
		{"Maximal independent set", func() (string, error) {
			s, err := lagraph.MIS(gu, 1)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%d members", s.Nvals()), nil
		}},
		{"Bipartite matching", func() (string, error) {
			ab := grb.MustMatrix[float64](256, 256)
			el := gen.Bipartite(256, 256, 2048, gen.Config{Seed: 14})
			for k := range el.Src {
				_ = ab.SetElement(el.Src[k], el.Dst[k]-256, 1)
			}
			rm, _, err := lagraph.BipartiteMatching(ab)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%d pairs", rm.Nvals()), nil
		}},
		{"Markov clustering", func() (string, error) {
			l, err := lagraph.MarkovClustering(small, 2, 1e-6, 50)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%d clusters", lagraph.CountComponents(l)), nil
		}},
		{"Peer-pressure clustering", func() (string, error) {
			l, err := lagraph.PeerPressure(small, 50)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%d clusters", lagraph.CountComponents(l)), nil
		}},
		{"Sparse DNN inference", func() (string, error) {
			y0 := grb.MustMatrix[float64](64, 128)
			for i := 0; i < 64; i++ {
				_ = y0.SetElement(i, (i*3)%128, 1)
			}
			w := gen.ErdosRenyi(128, 2048, gen.Config{Seed: 15, MinWeight: 0.1, MaxWeight: 1}).Matrix()
			y, err := lagraph.DNNInference(y0, []lagraph.DNNLayer{{W: w}, {W: w}}, 32)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%d activations", y.Nvals()), nil
		}},
		{"Local graph clustering", func() (string, error) {
			r, err := lagraph.LocalCluster(small, 0, 0.15, 1e-4)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%d members, φ=%.3f", len(r.Members), r.Conductance), nil
		}},
		{"A* search (extension)", func() (string, error) {
			el := gen.Grid2D(32, 32, gen.Config{Seed: 16, Undirected: true, MinWeight: 1, MaxWeight: 3})
			gg := lagraph.FromEdgeList(el, lagraph.Undirected)
			_, cost, ok, err := lagraph.AStar(gg, 0, 32*32-1, lagraph.GridManhattan(32, 32*32-1))
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("reachable=%v cost=%.0f", ok, cost), nil
		}},
		{"Multi-source BFS (batch 8)", func() (string, error) {
			l, err := lagraph.MSBFSLevels(gu, []int{0, 1, 2, 3, 4, 5, 6, 7})
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%d (source,vertex) pairs", l.Nvals()), nil
		}},
		{"k-core decomposition", func() (string, error) {
			d, err := lagraph.Coreness(gu)
			return fmt.Sprintf("degeneracy %d", d), err
		}},
		{"Subgraph counting", func() (string, error) {
			sc, err := lagraph.CountSubgraphs(gu)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%d tri / %d wedges", sc.TotalTriangles, sc.TotalWedges), nil
		}},
		{"Collaborative filtering", func() (string, error) {
			el := gen.Bipartite(128, 96, 1500, gen.Config{Seed: 18, MinWeight: 1, MaxWeight: 5})
			r := grb.MustMatrix[float64](128, 96)
			for k := range el.Src {
				_ = r.SetElement(el.Src[k], el.Dst[k]-128, el.W[k])
			}
			m, err := lagraph.CollaborativeFiltering(r, 4, 0.005, 0.01, 40, 1)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("rmse %.2f→%.2f", m.RMSE[0], m.RMSE[len(m.RMSE)-1]), nil
		}},
		{"HITS (extension)", func() (string, error) {
			r, err := lagraph.HITSWith(gd, lagraph.WithTolerance(1e-8), lagraph.WithMaxIter(100))
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%d iterations", r.Iterations), nil
		}},
		{"Pseudo-diameter", func() (string, error) {
			d, _, _, err := lagraph.PseudoDiameter(gu, 0, 6)
			return fmt.Sprintf("diameter ≥ %d", d), err
		}},
	}
	for _, e := range entries {
		t0 := time.Now()
		out, err := e.run()
		status := out
		if err != nil {
			status = "ERROR: " + err.Error()
		}
		fmt.Printf("  %-26s %-28s %10v\n", e.name, status, time.Since(t0).Round(time.Microsecond))
	}
}
