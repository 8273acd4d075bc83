package lagraph

import (
	"math"
	"runtime"
	"testing"

	"lagraph/internal/baseline"
	"lagraph/internal/gen"
	"lagraph/internal/grb"
)

func TestTriangleCountAllMethodsMatchBaseline(t *testing.T) {
	methods := []struct {
		name string
		m    TCMethod
	}{
		{"burkhardt", TCBurkhardt}, {"cohen", TCCohen},
		{"sandiaLL", TCSandiaLL}, {"sandiaDot", TCSandiaDot},
	}
	for _, seed := range []int64{1, 2, 3} {
		g := rmatGraph(t, 8, 8, seed, true)
		want := baseline.TriangleCount(baseline.FromMatrix(g.A.Dup()))
		for _, m := range methods {
			got, err := TriangleCount(g, m.m)
			if err != nil {
				t.Fatalf("%s: %v", m.name, err)
			}
			if got != want {
				t.Fatalf("%s: %d triangles, want %d", m.name, got, want)
			}
		}
	}
}

func TestTriangleCountSmallCases(t *testing.T) {
	k4 := FromEdgeList(gen.Complete(4, gen.Config{Undirected: true}), Undirected)
	for _, m := range []TCMethod{TCBurkhardt, TCCohen, TCSandiaLL, TCSandiaDot} {
		if c, err := TriangleCount(k4, m); err != nil || c != 4 {
			t.Fatalf("K4 method %d: %d (%v)", m, c, err)
		}
	}
	ring := FromEdgeList(gen.Ring(8, gen.Config{Undirected: true}), Undirected)
	if c, err := TriangleCount(ring, TCSandiaLL); err != nil || c != 0 {
		t.Fatalf("ring: %d (%v)", c, err)
	}
}

func TestTriangleCountRequiresUndirected(t *testing.T) {
	g := rmatGraph(t, 6, 4, 1, false)
	if _, err := TriangleCount(g, TCBurkhardt); err != ErrNotUndirected {
		t.Fatal(err)
	}
}

func TestKTruss(t *testing.T) {
	// K4 with a pendant: 3-truss keeps exactly the K4 edges; 4-truss of
	// K4 keeps K4 (each edge in 2 triangles); 5-truss is empty.
	e := gen.Complete(4, gen.Config{Undirected: true})
	e.N = 5
	e.Src = append(e.Src, 0, 4)
	e.Dst = append(e.Dst, 4, 0)
	e.W = append(e.W, 1, 1)
	g := FromEdgeList(e, Undirected)

	t3, err := KTruss(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if t3.Nvals() != 12 { // K4's 6 undirected edges, both directions
		t.Fatalf("3-truss nvals=%d want 12", t3.Nvals())
	}
	if _, err := t3.GetElement(0, 4); err == nil {
		t.Fatal("pendant edge must leave the truss")
	}
	// Each K4 edge supports 2 triangles.
	if v, _ := t3.GetElement(0, 1); v != 2 {
		t.Fatalf("support=%d want 2", v)
	}
	t4, err := KTruss(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if t4.Nvals() != 12 {
		t.Fatalf("4-truss nvals=%d", t4.Nvals())
	}
	t5, err := KTruss(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	if t5.Nvals() != 0 {
		t.Fatalf("5-truss nvals=%d", t5.Nvals())
	}
	if _, err := KTruss(g, 2); err != ErrBadArgument {
		t.Fatal("k<3 must be rejected")
	}
}

// bruteTruss computes the k-truss by direct per-edge triangle counting —
// an independent oracle for the GraphBLAS formulation.
func bruteTruss(g *Graph, k int) map[[2]int]int {
	adj := map[int]map[int]bool{}
	g.A.Iterate(func(i, j int, _ float64) bool {
		if i != j {
			if adj[i] == nil {
				adj[i] = map[int]bool{}
			}
			adj[i][j] = true
		}
		return true
	})
	edges := map[[2]int]bool{}
	for u, nb := range adj {
		for v := range nb {
			edges[[2]int{u, v}] = true
		}
	}
	for {
		support := map[[2]int]int{}
		for e := range edges {
			u, v := e[0], e[1]
			for w := range adj[u] {
				if w != v && adj[v][w] && edges[[2]int{u, w}] && edges[[2]int{v, w}] {
					support[e]++
				}
			}
		}
		removed := false
		for e := range edges {
			if support[e] < k-2 {
				delete(edges, e)
				delete(adj[e[0]], e[1])
				removed = true
			}
		}
		if !removed {
			out := map[[2]int]int{}
			for e := range edges {
				out[e] = support[e]
			}
			return out
		}
	}
}

func TestKTrussMatchesBruteForce(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		g := rmatGraph(t, 6, 6, seed, true)
		for _, k := range []int{3, 4, 5} {
			want := bruteTruss(g, k)
			got, err := KTruss(g, k)
			if err != nil {
				t.Fatal(err)
			}
			if got.Nvals() != len(want) {
				t.Fatalf("seed %d k=%d: %d edges vs brute %d", seed, k, got.Nvals(), len(want))
			}
			got.Iterate(func(i, j int, s int64) bool {
				ws, ok := want[[2]int{i, j}]
				if !ok {
					t.Fatalf("seed %d k=%d: edge (%d,%d) not in brute truss", seed, k, i, j)
				}
				if int(s) != ws {
					t.Fatalf("seed %d k=%d: support(%d,%d)=%d want %d", seed, k, i, j, s, ws)
				}
				return true
			})
		}
	}
}

func componentsMatch(t *testing.T, got *grb.Vector[int64], want []int) {
	t.Helper()
	for v := range want {
		gv, err := got.GetElement(v)
		if err != nil {
			t.Fatalf("vertex %d unlabeled", v)
		}
		if int(gv) != want[v] {
			t.Fatalf("vertex %d: label %d want %d", v, gv, want[v])
		}
	}
}

func TestConnectedComponentsMatchBaseline(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		// Sparse enough to have several components.
		e := gen.ErdosRenyi(300, 260, gen.Config{Seed: seed, Undirected: true, NoSelfLoops: true})
		g := FromEdgeList(e, Undirected)
		want := baseline.ConnectedComponents(baseline.FromMatrix(g.A.Dup()))
		gotSV, err := ConnectedComponentsFastSV(g)
		if err != nil {
			t.Fatal(err)
		}
		componentsMatch(t, gotSV, want)
		gotLP, err := ConnectedComponentsLabelProp(g)
		if err != nil {
			t.Fatal(err)
		}
		componentsMatch(t, gotLP, want)
	}
}

func TestConnectedComponentsDirectedWeak(t *testing.T) {
	// A directed path is weakly connected: one component.
	g := FromEdgeList(gen.Path(10, gen.Config{}), Directed)
	got, err := ConnectedComponentsFastSV(g)
	if err != nil {
		t.Fatal(err)
	}
	if CountComponents(got) != 1 {
		t.Fatalf("components=%d", CountComponents(got))
	}
}

// TestConnectedComponentsFirstCallAllocates is the work gate for the
// matrix FastSV multiplies. min.second never loads an entry of A, so FastSV
// multiplies A itself and a graph's first call allocates only its vectors
// (~5 bytes per stored entry on RMAT-12). Multiplying an int64 copy of A's
// pattern instead, built on every graph's first call, reads 22–24.
func TestConnectedComponentsFirstCallAllocates(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops entries at random: the kernel scratch is reallocated and the bytes stop being a count")
	}
	const maxBytesPerEntry = 7.4 // 1.25 × the 5.07–5.92 measured
	g := rmatGraph(t, 12, 8, 99, true)
	g.A.Materialize()
	if _, err := ConnectedComponentsFastSV(g); err != nil { // fills the kernel scratch pools
		t.Fatal(err)
	}
	fresh, err := NewGraph(g.A, Undirected) // same A, nothing cached
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ConnectedComponentsFastSV(fresh); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	b := float64(after.TotalAlloc-before.TotalAlloc) / float64(g.NEdges())
	t.Logf("FastSV on RMAT-12 (%d entries): %.2f B per entry on a graph's first call", g.NEdges(), b)
	if b > maxBytesPerEntry {
		t.Errorf("a first FastSV allocates %.2f bytes per stored entry (limit %.2f): it is building a matrix (a copy of A's pattern) rather than multiplying A", b, maxBytesPerEntry)
	}
}

// TestOutDegreeAllocates: a graph's first OutDegree allocates its result,
// 16 bytes per vertex, never a copy of A's pattern.
func TestOutDegreeAllocates(t *testing.T) {
	const maxBytesPerEntry = 1.54 // 1.25 × the 1.23 measured
	g := rmatGraph(t, 12, 8, 99, true)
	g.A.Materialize()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	deg := g.OutDegree()
	runtime.ReadMemStats(&after)
	b := float64(after.TotalAlloc-before.TotalAlloc) / float64(g.NEdges())
	t.Logf("OutDegree on RMAT-12 (%d entries, %d rows with one): %.2f B per entry", g.NEdges(), deg.Nvals(), b)
	if b > maxBytesPerEntry {
		t.Errorf("a first OutDegree allocates %.2f bytes per stored entry (limit %.2f): it is copying A rather than reading its rows", b, maxBytesPerEntry)
	}
}

func TestPageRankMatchesBaseline(t *testing.T) {
	e := gen.RMAT(9, 8, gen.Config{Seed: 3, NoSelfLoops: true})
	g := FromEdgeList(e, Directed)
	bg := baseline.FromMatrix(g.A.Dup())
	want := baseline.PageRank(bg, 0.85, 100)
	res, err := PageRankWith(g, WithDamping(0.85), WithTolerance(1e-10), WithMaxIter(200))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("should converge")
	}
	sum := 0.0
	for v := 0; v < g.N(); v++ {
		r, err := res.Rank.GetElement(v)
		if err != nil {
			t.Fatalf("rank %d missing", v)
		}
		if math.Abs(r-want[v]) > 1e-6 {
			t.Fatalf("rank[%d]=%v want %v", v, r, want[v])
		}
		sum += r
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("ranks sum to %v", sum)
	}
}

func TestPageRankBadArgs(t *testing.T) {
	g := rmatGraph(t, 5, 4, 1, false)
	if _, err := PageRankWith(g, WithDamping(1.5)); err != ErrBadArgument {
		t.Fatal(err)
	}
	if _, err := PageRankWith(g, WithDamping(-0.1)); err != ErrBadArgument {
		t.Fatal(err)
	}
	// Zero-value options select defaults rather than erroring.
	if _, err := PageRankWith(g, WithMaxIter(0), WithTolerance(0)); err != nil {
		t.Fatal(err)
	}
}

func TestTopK(t *testing.T) {
	v := grb.DenseVector([]float64{0.1, 0.9, 0.5, 0.7})
	top := TopK(v, 2)
	if len(top) != 2 || top[0] != 1 || top[1] != 3 {
		t.Fatalf("topk=%v", top)
	}
	if got := TopK(v, 99); len(got) != 4 {
		t.Fatalf("overlong k: %v", got)
	}
}

func TestBetweennessMatchesBaseline(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		e := gen.ErdosRenyi(60, 300, gen.Config{Seed: seed, Undirected: true, NoSelfLoops: true})
		g := FromEdgeList(e, Undirected)
		bg := baseline.FromMatrix(g.A.Dup())
		sources := []int{0, 5, 11, 17, 23}
		want := baseline.BetweennessCentralitySources(bg, sources)
		got, err := BetweennessCentrality(g, sources)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < g.N(); v++ {
			gv, err := got.GetElement(v)
			if err != nil {
				gv = 0
			}
			if math.Abs(gv-want[v]) > 1e-6 {
				t.Fatalf("bc[%d]=%v want %v", v, gv, want[v])
			}
		}
	}
}

func TestBetweennessDirected(t *testing.T) {
	// Batched BC must also agree with the baseline on a directed graph.
	e := gen.ErdosRenyi(50, 350, gen.Config{Seed: 20, NoSelfLoops: true})
	g := FromEdgeList(e, Directed)
	bg := baseline.FromMatrix(g.A.Dup())
	sources := []int{0, 9, 25, 33}
	want := baseline.BetweennessCentralitySources(bg, sources)
	got, err := BetweennessCentrality(g, sources)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		gv, err := got.GetElement(v)
		if err != nil {
			gv = 0
		}
		if math.Abs(gv-want[v]) > 1e-6 {
			t.Fatalf("bc[%d]=%v want %v", v, gv, want[v])
		}
	}
}

func TestBetweennessPathGraph(t *testing.T) {
	// Exact BC on the undirected path of 5 (all sources).
	e := gen.Path(5, gen.Config{Undirected: true})
	g := FromEdgeList(e, Undirected)
	all := []int{0, 1, 2, 3, 4}
	got, err := BetweennessCentrality(g, all)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]float64{1: 6, 2: 8, 3: 6}
	for v, w := range want {
		gv, err := got.GetElement(v)
		if err != nil || math.Abs(gv-w) > 1e-9 {
			t.Fatalf("bc[%d]=%v want %v (err %v)", v, gv, w, err)
		}
	}
	if _, err := got.GetElement(0); err == nil {
		t.Fatal("endpoints must have zero (absent) centrality")
	}
}

func TestMISValid(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		g := rmatGraph(t, 8, 6, seed, true)
		iset, err := MIS(g, seed)
		if err != nil {
			t.Fatal(err)
		}
		ok, reason := VerifyMIS(g, iset)
		if !ok {
			t.Fatalf("seed %d: %s", seed, reason)
		}
	}
}

func TestMISIncludesIsolated(t *testing.T) {
	// A graph with isolated vertices: they must all join the set.
	e := gen.Ring(4, gen.Config{Undirected: true})
	e.N = 7 // vertices 4,5,6 isolated
	g := FromEdgeList(e, Undirected)
	iset, err := MIS(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	for v := 4; v < 7; v++ {
		if _, err := iset.GetElement(v); err != nil {
			t.Fatalf("isolated vertex %d must be in the MIS", v)
		}
	}
}

func TestColoringValid(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		g := rmatGraph(t, 8, 8, seed, true)
		colour, used, err := Coloring(g, seed)
		if err != nil {
			t.Fatal(err)
		}
		if used < 1 {
			t.Fatal("no colours used")
		}
		if !VerifyColoring(g, colour) {
			t.Fatalf("seed %d: invalid coloring", seed)
		}
	}
}

func TestColoringRingNeedsFew(t *testing.T) {
	g := FromEdgeList(gen.Ring(10, gen.Config{Undirected: true}), Undirected)
	colour, used, err := Coloring(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyColoring(g, colour) {
		t.Fatal("invalid")
	}
	if used > 4 {
		t.Fatalf("ring coloured with %d colours; JP should use few", used)
	}
}

func TestMarkovClusteringTwoCliques(t *testing.T) {
	// Two K5 cliques joined by a single bridge edge: MCL must separate
	// them.
	e := gen.Complete(5, gen.Config{Undirected: true})
	e2 := gen.Complete(5, gen.Config{Undirected: true})
	e.N = 10
	for k := range e2.Src {
		e.Src = append(e.Src, e2.Src[k]+5)
		e.Dst = append(e.Dst, e2.Dst[k]+5)
		e.W = append(e.W, 1)
	}
	e.Src = append(e.Src, 0, 5)
	e.Dst = append(e.Dst, 5, 0)
	e.W = append(e.W, 1, 1)
	g := FromEdgeList(e, Undirected)
	labels, err := MarkovClustering(g, 2.0, 1e-6, 60)
	if err != nil {
		t.Fatal(err)
	}
	l0, _ := labels.GetElement(0)
	l5, _ := labels.GetElement(5)
	if l0 == l5 {
		t.Fatal("cliques must end in different clusters")
	}
	for v := 1; v < 5; v++ {
		if lv, _ := labels.GetElement(v); lv != l0 {
			t.Fatalf("vertex %d left cluster 0", v)
		}
	}
	for v := 6; v < 10; v++ {
		if lv, _ := labels.GetElement(v); lv != l5 {
			t.Fatalf("vertex %d left cluster 1", v)
		}
	}
}

func TestPeerPressureTwoCliques(t *testing.T) {
	e := gen.Complete(6, gen.Config{Undirected: true})
	e2 := gen.Complete(6, gen.Config{Undirected: true})
	e.N = 12
	for k := range e2.Src {
		e.Src = append(e.Src, e2.Src[k]+6)
		e.Dst = append(e.Dst, e2.Dst[k]+6)
		e.W = append(e.W, 1)
	}
	g := FromEdgeList(e, Undirected)
	labels, err := PeerPressure(g, 50)
	if err != nil {
		t.Fatal(err)
	}
	l0, _ := labels.GetElement(0)
	l6, _ := labels.GetElement(6)
	if l0 == l6 {
		t.Fatal("disjoint cliques must get different clusters")
	}
	for v := 1; v < 6; v++ {
		if lv, _ := labels.GetElement(v); lv != l0 {
			t.Fatalf("vertex %d", v)
		}
	}
}

func TestDNNInference(t *testing.T) {
	// One feature, two neurons, two layers with hand-computed results.
	y0 := grb.MustMatrix[float64](1, 2)
	_ = y0.SetElement(0, 0, 1)
	_ = y0.SetElement(0, 1, 2)
	w1 := grb.MustMatrix[float64](2, 2)
	_ = w1.SetElement(0, 0, 1)
	_ = w1.SetElement(1, 0, 1)  // neuron0 ← y0+y1 = 3
	_ = w1.SetElement(1, 1, -1) // neuron1 ← -2 → ReLU drops
	bias := grb.MustVector[float64](2)
	_ = bias.SetElement(0, 0.5)
	layers := []DNNLayer{{W: w1, Bias: bias}}
	y, err := DNNInference(y0, layers, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := y.GetElement(0, 0); v != 3.5 {
		t.Fatalf("y(0,0)=%v want 3.5", v)
	}
	if _, err := y.GetElement(0, 1); err == nil {
		t.Fatal("negative activation must be dropped by ReLU")
	}
	// Clamp.
	y2, err := DNNInference(y0, layers, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := y2.GetElement(0, 0); v != 2.0 {
		t.Fatalf("clamped y=%v", v)
	}
	cats, err := DNNCategories(y)
	if err != nil {
		t.Fatal(err)
	}
	if cats.Nvals() != 1 {
		t.Fatalf("categories=%d", cats.Nvals())
	}
}

func TestDNNMultiLayerRandom(t *testing.T) {
	// Random multi-layer run: activations must stay non-negative and
	// bounded by ymax.
	e := gen.ErdosRenyi(64, 512, gen.Config{Seed: 4, MinWeight: -0.5, MaxWeight: 1})
	w := e.Matrix()
	y0El := gen.Bipartite(32, 0, 0, gen.Config{})
	_ = y0El
	y0 := grb.MustMatrix[float64](32, 64)
	for i := 0; i < 32; i++ {
		_ = y0.SetElement(i, (i*7)%64, 1)
		_ = y0.SetElement(i, (i*13)%64, 0.5)
	}
	layers := []DNNLayer{{W: w}, {W: w}, {W: w}}
	y, err := DNNInference(y0, layers, 32)
	if err != nil {
		t.Fatal(err)
	}
	_, _, xs := y.ExtractTuples()
	for _, x := range xs {
		if x <= 0 || x > 32 {
			t.Fatalf("activation %v outside (0,32]", x)
		}
	}
}

func TestBipartiteMatching(t *testing.T) {
	// The diagonal graph forces a perfect matching.
	diag := grb.MustMatrix[float64](4, 4)
	for i := 0; i < 4; i++ {
		_ = diag.SetElement(i, i, 1)
	}
	rm, cm, err := BipartiteMatching(diag)
	if err != nil {
		t.Fatal(err)
	}
	if ok, reason := VerifyMatching(diag, rm, cm); !ok {
		t.Fatal(reason)
	}
	if rm.Nvals() != 4 {
		t.Fatalf("matched %d rows; want perfect", rm.Nvals())
	}

	// A denser graph: the matching is maximal, hence at least half of
	// the maximum (which is 4 here) — at least 2 pairs.
	a := grb.MustMatrix[float64](4, 4)
	for i := 0; i < 4; i++ {
		_ = a.SetElement(i, i, 1)
		_ = a.SetElement(i, (i+1)%4, 1)
	}
	rm, cm, err = BipartiteMatching(a)
	if err != nil {
		t.Fatal(err)
	}
	if ok, reason := VerifyMatching(a, rm, cm); !ok {
		t.Fatal(reason)
	}
	if rm.Nvals() < 2 {
		t.Fatalf("matched %d rows; maximal matching is ≥ half of maximum", rm.Nvals())
	}
}

func TestBipartiteMatchingRandom(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		e := gen.Bipartite(40, 50, 300, gen.Config{Seed: seed})
		// Biadjacency block: rows 0..39, cols 0..49.
		a := grb.MustMatrix[float64](40, 50)
		for k := range e.Src {
			_ = a.SetElement(e.Src[k], e.Dst[k]-40, 1)
		}
		rm, cm, err := BipartiteMatching(a)
		if err != nil {
			t.Fatal(err)
		}
		if ok, reason := VerifyMatching(a, rm, cm); !ok {
			t.Fatalf("seed %d: %s", seed, reason)
		}
	}
}

func TestLocalClusterFindsPlantedCommunity(t *testing.T) {
	// Two dense communities with a weak bridge; seeding inside one must
	// recover (mostly) that community.
	e := gen.Complete(12, gen.Config{Undirected: true})
	e2 := gen.Complete(12, gen.Config{Undirected: true})
	e.N = 24
	for k := range e2.Src {
		e.Src = append(e.Src, e2.Src[k]+12)
		e.Dst = append(e.Dst, e2.Dst[k]+12)
		e.W = append(e.W, 1)
	}
	e.Src = append(e.Src, 0, 12)
	e.Dst = append(e.Dst, 12, 0)
	e.W = append(e.W, 1, 1)
	g := FromEdgeList(e, Undirected)
	res, err := LocalCluster(g, 3, 0.15, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Members) == 0 {
		t.Fatal("empty cluster")
	}
	inFirst := 0
	for _, v := range res.Members {
		if v < 12 {
			inFirst++
		}
	}
	if inFirst < len(res.Members)-1 {
		t.Fatalf("cluster leaks: %v", res.Members)
	}
	if res.Conductance > 0.5 {
		t.Fatalf("conductance %v too high", res.Conductance)
	}
}

func TestMeasureAndHistogram(t *testing.T) {
	g := FromEdgeList(gen.Ring(8, gen.Config{Undirected: true}), Undirected)
	s := Measure(g)
	if s.N != 8 || s.NEdges != 16 || s.NSelfLoops != 0 {
		t.Fatalf("stats %+v", s)
	}
	if s.MaxDegree != 2 || s.MinDegree != 2 || s.AvgDegree != 2 {
		t.Fatalf("degrees %+v", s)
	}
	h := DegreeHistogram(g)
	if len(h) != 3 || h[2] != 8 {
		t.Fatalf("hist %v", h)
	}
}

func TestGraphProperties(t *testing.T) {
	g := FromEdgeList(gen.Ring(6, gen.Config{Undirected: true}), Undirected)
	if !g.IsSymmetric() {
		t.Fatal("undirected ring must be symmetric")
	}
	d := FromEdgeList(gen.Path(6, gen.Config{}), Directed)
	if d.IsSymmetric() {
		t.Fatal("directed path must not be symmetric")
	}
	// In/out degrees of the directed path.
	od := d.OutDegree()
	if v, _ := od.GetElement(0); v != 1 {
		t.Fatal("out degree")
	}
	// In-degrees are a column reduce of the pattern.
	id := grb.MustVector[int64](d.N())
	if err := grb.ReduceMatrixToVector[int64, bool](id, nil, nil, grb.PlusMonoid[int64](), d.patternInt64(), grb.DescT0); err != nil {
		t.Fatal(err)
	}
	if _, err := id.GetElement(0); err == nil {
		t.Fatal("vertex 0 has no in-edges")
	}
	if v, _ := id.GetElement(5); v != 1 {
		t.Fatal("in degree")
	}
	// Self loops.
	a := grb.MustMatrix[float64](3, 3)
	_ = a.SetElement(0, 0, 1)
	_ = a.SetElement(1, 2, 1)
	gl, _ := NewGraph(a, Directed)
	if gl.NSelfLoops() != 1 {
		t.Fatalf("self loops=%d", gl.NSelfLoops())
	}
	// The transpose is one grb call.
	at := grb.MustMatrix[float64](d.N(), d.N())
	if err := grb.Transpose[float64, bool](at, nil, nil, d.A, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := at.GetElement(1, 0); err != nil {
		t.Fatal("transpose entry missing")
	}
}

func TestNewGraphValidation(t *testing.T) {
	if _, err := NewGraph(nil, Directed); err == nil {
		t.Fatal("nil adjacency")
	}
	rect := grb.MustMatrix[float64](2, 3)
	if _, err := NewGraph(rect, Directed); err == nil {
		t.Fatal("rectangular adjacency")
	}
}
