package lagraph

import (
	"math"
	"slices"
	"testing"

	"lagraph/internal/baseline"
	"lagraph/internal/gen"
	"lagraph/internal/grb"
	"lagraph/internal/obs"
)

func rmatGraph(t testing.TB, scale, ef int, seed int64, undirected bool) *Graph {
	t.Helper()
	e := gen.RMAT(scale, ef, gen.Config{Seed: seed, Undirected: undirected, NoSelfLoops: true})
	kind := Directed
	if undirected {
		kind = Undirected
	}
	return FromEdgeList(e, kind)
}

// levelsMatch compares a GraphBLAS level vector with the baseline array
// (-1 meaning unreached).
func levelsMatch(t *testing.T, got *grb.Vector[int32], want []int, offset int32) {
	t.Helper()
	for v, wl := range want {
		gl, err := got.GetElement(v)
		if wl < 0 {
			if err == nil {
				t.Fatalf("vertex %d should be unreached, got level %d", v, gl)
			}
			continue
		}
		if err != nil {
			t.Fatalf("vertex %d missing level (want %d)", v, wl)
		}
		if gl != int32(wl)+offset {
			t.Fatalf("vertex %d: level %d want %d", v, gl, int32(wl)+offset)
		}
	}
}

func TestBFSLevelSimpleMatchesBaseline(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		g := rmatGraph(t, 8, 8, seed, false)
		bg := baseline.FromMatrix(g.A.Dup())
		want, _ := baseline.BFSLevels(bg, 0)
		got, err := BFSLevelSimple(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		levelsMatch(t, got, want, 1) // Fig. 2 BFS is 1-based
	}
}

func TestBFSLevelsAllDirections(t *testing.T) {
	g := rmatGraph(t, 9, 8, 4, false)
	bg := baseline.FromMatrix(g.A.Dup())
	want, _ := baseline.BFSLevels(bg, 3)
	for _, dir := range []grb.Direction{grb.DirAuto, grb.DirPush, grb.DirPull} {
		got, err := BFSLevels(g, 3, WithDirection(dir))
		if err != nil {
			t.Fatal(err)
		}
		levelsMatch(t, got, want, 0)
	}
}

func TestBFSDisconnected(t *testing.T) {
	// Two disjoint rings.
	e := gen.Ring(6, gen.Config{Undirected: true})
	e2 := gen.Ring(6, gen.Config{Undirected: true})
	for k := range e2.Src {
		e.Src = append(e.Src, e2.Src[k]+6)
		e.Dst = append(e.Dst, e2.Dst[k]+6)
		e.W = append(e.W, 1)
	}
	e.N = 12
	g := FromEdgeList(e, Undirected)
	levels, err := BFSLevels(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if levels.Nvals() != 6 {
		t.Fatalf("reached %d vertices, want 6", levels.Nvals())
	}
	for v := 6; v < 12; v++ {
		if _, err := levels.GetElement(v); err == nil {
			t.Fatalf("vertex %d in the other component was reached", v)
		}
	}
}

func TestBFSParentsValid(t *testing.T) {
	g := rmatGraph(t, 9, 8, 5, true)
	bg := baseline.FromMatrix(g.A.Dup())
	wantLevels, _ := baseline.BFSLevels(bg, 1)
	parents, err := BFSParents(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A parent vector is valid iff: source is its own parent, every
	// reached vertex has a parent one level above it, and the reached
	// sets coincide.
	if p, err := parents.GetElement(1); err != nil || p != 1 {
		t.Fatalf("source parent: (%v, %v)", p, err)
	}
	for v := 0; v < g.N(); v++ {
		p, err := parents.GetElement(v)
		if wantLevels[v] < 0 {
			if err == nil {
				t.Fatalf("unreachable vertex %d has parent %d", v, p)
			}
			continue
		}
		if err != nil {
			t.Fatalf("reached vertex %d has no parent", v)
		}
		if v == 1 {
			continue
		}
		if wantLevels[int(p)] != wantLevels[v]-1 {
			t.Fatalf("vertex %d: parent %d at level %d, want level %d",
				v, p, wantLevels[int(p)], wantLevels[v]-1)
		}
		// Parent must be an in-neighbour (edge p→v).
		if _, err := g.A.GetElement(int(p), v); err != nil {
			t.Fatalf("parent edge %d→%d missing", p, v)
		}
	}
}

// TestBFSBothConsistent: BFSLevels and BFSParents traverse the same graph
// alike. They reach the same vertices, and every vertex but the source
// sits one level below its parent.
func TestBFSBothConsistent(t *testing.T) {
	g := rmatGraph(t, 8, 6, 6, true)
	levels, err := BFSLevels(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	parents, err := BFSParents(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	li, lx := levels.ExtractTuples()
	pi, px := parents.ExtractTuples()
	if len(li) != len(pi) {
		t.Fatalf("BFSLevels reaches %d vertices, BFSParents %d", len(li), len(pi))
	}
	for k, v := range li {
		if pi[k] != v {
			t.Fatalf("reached sets differ at entry %d: %d vs %d", k, v, pi[k])
		}
		if v == 0 {
			continue
		}
		if lp, err := levels.GetElement(int(px[k])); err != nil || lp != lx[k]-1 {
			t.Fatalf("vertex %d at level %d: parent %d at level %d (%v)", v, lx[k], px[k], lp, err)
		}
	}
}

func TestBFSRecordsDirectionSwitch(t *testing.T) {
	// On a scale-free graph the frontier balloons: DirAuto must start
	// with push and switch to pull at the hump.
	g := rmatGraph(t, 11, 16, 7, true)
	trace := obs.NewTrace(64)
	if _, err := BFSLevels(g, 0, WithObserver(trace)); err != nil {
		t.Fatal(err)
	}
	recs := trace.Iters()
	if len(recs) < 2 {
		t.Fatalf("depth=%d", len(recs))
	}
	if recs[0].Dir != "push" {
		t.Fatal("first iteration should push (frontier = 1 vertex)")
	}
	if !slices.ContainsFunc(recs, func(r obs.IterRecord) bool { return r.Dir == "pull" }) {
		t.Fatal("expected at least one pull iteration on a scale-free graph")
	}
}

func TestBFSBadSource(t *testing.T) {
	g := rmatGraph(t, 6, 4, 1, false)
	if _, err := BFSLevels(g, -1); err != ErrBadArgument {
		t.Fatal(err)
	}
	if _, err := BFSLevels(g, g.N()); err != ErrBadArgument {
		t.Fatal(err)
	}
	if _, err := BFSParents(g, 99999); err != ErrBadArgument {
		t.Fatal(err)
	}
}

func TestSSSPBellmanFordMatchesDijkstra(t *testing.T) {
	rmat := func(seed int64) *Graph {
		e := gen.RMAT(8, 8, gen.Config{Seed: seed, Undirected: true, NoSelfLoops: true, MinWeight: 1, MaxWeight: 10})
		return FromEdgeList(e, Undirected)
	}
	// Vertex 4 sits at 1e15, where a float64 sum of the distances moves in
	// steps of 0.125. Iteration 3 finds 0→2→3→1 and improves d(1) from 1 to
	// 0.99, which that sum cannot see; d(5) = d(1) + 10 moves at iteration 4.
	far := FromEdgeList(&gen.EdgeList{N: 6,
		Src: []int{0, 0, 0, 2, 3, 1},
		Dst: []int{4, 1, 2, 3, 1, 5},
		W:   []float64{1e15, 1, 0.33, 0.33, 0.33, 10},
	}, Directed)
	for _, tc := range []struct {
		name string
		g    *Graph
	}{
		{"rmat-8 seed 1", rmat(1)},
		{"rmat-8 seed 2", rmat(2)},
		{"improvement below the sum's precision", far},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := baseline.Dijkstra(baseline.FromMatrix(tc.g.A.Dup()), 0)
			got, err := SSSPBellmanFord(tc.g, 0)
			if err != nil {
				t.Fatal(err)
			}
			ssspMatch(t, got, want)
		})
	}
}

func ssspMatch(t *testing.T, got *grb.Vector[float64], want []float64) {
	t.Helper()
	for v, wd := range want {
		gd, err := got.GetElement(v)
		if math.IsInf(wd, 1) {
			if err == nil {
				t.Fatalf("vertex %d should be unreachable, got %v", v, gd)
			}
			continue
		}
		if err != nil {
			t.Fatalf("vertex %d missing distance (want %v)", v, wd)
		}
		if math.Abs(gd-wd) > 1e-9 {
			t.Fatalf("vertex %d: dist %v want %v", v, gd, wd)
		}
	}
}

func TestSSSPDeltaSteppingMatchesDijkstra(t *testing.T) {
	for _, delta := range []float64{1, 2.5, 100} {
		e := gen.RMAT(8, 8, gen.Config{Seed: 3, Undirected: true, NoSelfLoops: true, MinWeight: 1, MaxWeight: 10})
		g := FromEdgeList(e, Undirected)
		bg := baseline.FromMatrix(g.A.Dup())
		want := baseline.Dijkstra(bg, 2)
		got, err := SSSP(g, 2, WithDelta(delta))
		if err != nil {
			t.Fatal(err)
		}
		ssspMatch(t, got, want)
	}
}

func TestSSSPDeltaSteppingGrid(t *testing.T) {
	// Long-diameter weighted grid, the delta-stepping sweet spot.
	e := gen.Grid2D(20, 20, gen.Config{Seed: 9, Undirected: true, MinWeight: 1, MaxWeight: 5})
	g := FromEdgeList(e, Undirected)
	bg := baseline.FromMatrix(g.A.Dup())
	want := baseline.Dijkstra(bg, 0)
	got, err := SSSP(g, 0, WithDelta(3))
	if err != nil {
		t.Fatal(err)
	}
	ssspMatch(t, got, want)
}

func TestSSSPBadArgs(t *testing.T) {
	g := rmatGraph(t, 6, 4, 1, true)
	if _, err := SSSPBellmanFord(g, -1); err != ErrBadArgument {
		t.Fatal(err)
	}
	if _, err := SSSP(g, 0, WithDelta(-1)); err != ErrBadArgument {
		t.Fatal(err)
	}
}

func TestAPSPMatchesDijkstraRows(t *testing.T) {
	e := gen.ErdosRenyi(40, 200, gen.Config{Seed: 5, Undirected: true, NoSelfLoops: true, MinWeight: 1, MaxWeight: 9})
	g := FromEdgeList(e, Undirected)
	bg := baseline.FromMatrix(g.A.Dup())
	d, err := APSP(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []int{0, 7, 20} {
		want := baseline.Dijkstra(bg, src)
		for v := 0; v < g.N(); v++ {
			gd, err := d.GetElement(src, v)
			if math.IsInf(want[v], 1) {
				if err == nil {
					t.Fatalf("(%d,%d) should be unreachable", src, v)
				}
				continue
			}
			if err != nil || math.Abs(gd-want[v]) > 1e-9 {
				t.Fatalf("(%d,%d): %v want %v (err %v)", src, v, gd, want[v], err)
			}
		}
	}
}

func TestAStarOnGrid(t *testing.T) {
	rows, cols := 15, 17
	e := gen.Grid2D(rows, cols, gen.Config{Seed: 11, Undirected: true, MinWeight: 1, MaxWeight: 4})
	g := FromEdgeList(e, Undirected)
	bg := baseline.FromMatrix(g.A.Dup())
	src, dst := 0, rows*cols-1
	want := baseline.Dijkstra(bg, src)

	path, cost, ok, err := AStar(g, src, dst, GridManhattan(cols, dst))
	if err != nil || !ok {
		t.Fatalf("astar: ok=%v err=%v", ok, err)
	}
	if math.Abs(cost-want[dst]) > 1e-9 {
		t.Fatalf("cost %v want %v", cost, want[dst])
	}
	// Path must be a real walk of the right cost.
	if path[0] != src || path[len(path)-1] != dst {
		t.Fatal("path endpoints")
	}
	sum := 0.0
	for k := 0; k+1 < len(path); k++ {
		w, err := g.A.GetElement(path[k], path[k+1])
		if err != nil {
			t.Fatalf("path edge %d→%d missing", path[k], path[k+1])
		}
		sum += w
	}
	if math.Abs(sum-cost) > 1e-9 {
		t.Fatalf("path cost %v reported %v", sum, cost)
	}
	// Zero heuristic (Dijkstra mode) agrees.
	_, cost2, ok, err := AStar(g, src, dst, ZeroHeuristic)
	if err != nil || !ok || math.Abs(cost2-cost) > 1e-9 {
		t.Fatalf("zero-heuristic cost %v want %v", cost2, cost)
	}
}

func TestAStarUnreachable(t *testing.T) {
	e := gen.Path(4, gen.Config{}) // directed path; 3 cannot reach 0
	g := FromEdgeList(e, Directed)
	_, _, ok, err := AStar(g, 3, 0, ZeroHeuristic)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("3 must not reach 0 in a directed path")
	}
}
