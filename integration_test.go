package lagraph_test

// End-to-end pipeline tests across package boundaries: generate → write
// Matrix Market → read back → wrap as a Graph → run algorithms → verify
// against the independent baselines. This is the "test harness"
// deliverable of Fig. 1 exercised as a whole.

import (
	"math"
	"path/filepath"
	"testing"

	root "lagraph"
	"lagraph/internal/baseline"
	"lagraph/internal/gen"
	"lagraph/internal/grb"
	"lagraph/internal/lagraph"
	"lagraph/internal/mmio"
)

func TestPipelineGenerateSerializeAnalyze(t *testing.T) {
	// 1. Generate a weighted scale-free graph.
	e := gen.RMAT(9, 8, gen.Config{Seed: 77, Undirected: true, NoSelfLoops: true, MinWeight: 1, MaxWeight: 9})
	a := e.Matrix()

	// 2. Serialize to Matrix Market and read back.
	dir := t.TempDir()
	path := filepath.Join(dir, "graph.mtx")
	if err := mmio.WriteMatrixFile(path, a); err != nil {
		t.Fatal(err)
	}
	b, hdr, err := mmio.ReadMatrixFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.NRows != a.Nrows() || b.Nvals() != a.Nvals() {
		t.Fatalf("roundtrip: %d vs %d entries", b.Nvals(), a.Nvals())
	}

	// 3. Wrap and analyze.
	g, err := lagraph.NewGraph(b, lagraph.Undirected)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsSymmetric() {
		t.Fatal("undirected RMAT must serialize symmetric")
	}
	bg := baseline.FromMatrix(g.A.Dup())

	// BFS agrees with the baseline.
	levels, err := lagraph.BFSLevels(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantLevels, _ := baseline.BFSLevels(bg, 0)
	for v, wl := range wantLevels {
		gl, err := levels.GetElement(v)
		if wl < 0 {
			if err == nil {
				t.Fatalf("vertex %d unreachable but leveled", v)
			}
			continue
		}
		if err != nil || gl != int32(wl) {
			t.Fatalf("level[%d]=%v want %d", v, gl, wl)
		}
	}

	// SSSP agrees with Dijkstra.
	dist, err := lagraph.SSSP(g, 0, lagraph.WithDelta(3))
	if err != nil {
		t.Fatal(err)
	}
	wantDist := baseline.Dijkstra(bg, 0)
	for v := range wantDist {
		gd, err := dist.GetElement(v)
		if math.IsInf(wantDist[v], 1) {
			if err == nil {
				t.Fatalf("dist[%d] should be missing", v)
			}
			continue
		}
		if err != nil || math.Abs(gd-wantDist[v]) > 1e-9 {
			t.Fatalf("dist[%d]=%v want %v", v, gd, wantDist[v])
		}
	}

	// Triangles agree across all four formulations and the baseline.
	wantTC := baseline.TriangleCount(bg)
	for _, m := range []lagraph.TCMethod{lagraph.TCBurkhardt, lagraph.TCCohen, lagraph.TCSandiaLL, lagraph.TCSandiaDot} {
		c, err := lagraph.TriangleCount(g, m)
		if err != nil || c != wantTC {
			t.Fatalf("tc method %d: %d want %d (%v)", m, c, wantTC, err)
		}
	}

	// Components agree.
	cc, err := lagraph.ConnectedComponentsFastSV(g)
	if err != nil {
		t.Fatal(err)
	}
	wantCC := baseline.ConnectedComponents(bg)
	for v := range wantCC {
		gv, err := cc.GetElement(v)
		if err != nil || int(gv) != wantCC[v] {
			t.Fatalf("cc[%d]=%v want %d", v, gv, wantCC[v])
		}
	}
}

func TestFacadeSurface(t *testing.T) {
	g := root.RMAT(8, 8, 5, true)
	if g.N() != 256 {
		t.Fatalf("n=%d", g.N())
	}
	levels, err := root.BFSLevels(g, 0)
	if err != nil || levels.Nvals() == 0 {
		t.Fatalf("bfs: %v", err)
	}
	tc, err := root.TriangleCount(g, lagraph.TCSandiaDot)
	if err != nil || tc <= 0 {
		t.Fatalf("tc=%d (%v)", tc, err)
	}
	cc, err := root.ConnectedComponents(g)
	if err != nil || cc.Nvals() != g.N() {
		t.Fatalf("cc: %v", err)
	}
	pr, err := root.PageRank(g, lagraph.WithDamping(0.85), lagraph.WithTolerance(1e-6), lagraph.WithMaxIter(50))
	if err != nil || !pr.Converged {
		t.Fatalf("pagerank: %v", err)
	}
	m, err := root.NewMatrix[float64](4, 4)
	if err != nil || m.Nrows() != 4 {
		t.Fatal("facade matrix")
	}
	v, err := root.NewVector[int](4)
	if err != nil || v.Size() != 4 {
		t.Fatal("facade vector")
	}
	if _, err := root.NewGraph(nil, root.Directed); err == nil {
		t.Fatal("facade graph validation")
	}
}

func TestPipelineHypersparseRoundTrip(t *testing.T) {
	// A graph over a huge vertex-id space survives the full pipeline:
	// build hypersparse → algorithms on a compacted id space.
	n := 1 << 35
	a := grb.MustMatrix[float64](n, n)
	// A ring over scattered ids.
	ids := make([]int, 64)
	for k := range ids {
		ids[k] = k * (1 << 28)
	}
	for k := range ids {
		_ = a.SetElement(ids[k], ids[(k+1)%len(ids)], 1)
		_ = a.SetElement(ids[(k+1)%len(ids)], ids[k], 1)
	}
	if a.Nvals() != 128 {
		t.Fatalf("nvals=%d", a.Nvals())
	}
	// Degree of every populated vertex is 2.
	deg := grb.MustVector[int64](n)
	ones := grb.MustMatrix[int64](n, n)
	if err := grb.ApplyMatrix[float64, int64, bool](ones, nil, nil, grb.One[float64, int64](), a, nil); err != nil {
		t.Fatal(err)
	}
	if err := grb.ReduceMatrixToVector[int64, bool](deg, nil, nil, grb.PlusMonoid[int64](), ones, nil); err != nil {
		t.Fatal(err)
	}
	if deg.Nvals() != 64 {
		t.Fatalf("deg nvals=%d", deg.Nvals())
	}
	_, xs := deg.ExtractTuples()
	for _, d := range xs {
		if d != 2 {
			t.Fatalf("degree %d", d)
		}
	}
}
