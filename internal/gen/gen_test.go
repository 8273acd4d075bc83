package gen

import (
	"reflect"
	"sort"
	"testing"
)

func TestRMATShape(t *testing.T) {
	e := RMAT(10, 8, Config{Seed: 1})
	if e.N != 1024 {
		t.Fatalf("n=%d", e.N)
	}
	if len(e.Src) != 8*1024 {
		t.Fatalf("edges=%d", len(e.Src))
	}
	for k := range e.Src {
		if e.Src[k] < 0 || e.Src[k] >= e.N || e.Dst[k] < 0 || e.Dst[k] >= e.N {
			t.Fatal("edge out of range")
		}
	}
}

func TestRMATSkew(t *testing.T) {
	// RMAT must produce a skewed degree distribution: the busiest vertex
	// should far exceed the mean degree.
	e := RMAT(12, 16, Config{Seed: 2})
	deg := make([]int, e.N)
	for _, u := range e.Src {
		deg[u]++
	}
	sort.Sort(sort.Reverse(sort.IntSlice(deg)))
	mean := float64(len(e.Src)) / float64(e.N)
	if float64(deg[0]) < 10*mean {
		t.Fatalf("max degree %d not skewed vs mean %.1f", deg[0], mean)
	}
}

func TestRMATDeterminism(t *testing.T) {
	a := RMAT(8, 4, Config{Seed: 7})
	b := RMAT(8, 4, Config{Seed: 7})
	for k := range a.Src {
		if a.Src[k] != b.Src[k] || a.Dst[k] != b.Dst[k] {
			t.Fatal("same seed must reproduce the same graph")
		}
	}
	c := RMAT(8, 4, Config{Seed: 8})
	same := true
	for k := range a.Src {
		if a.Src[k] != c.Src[k] || a.Dst[k] != c.Dst[k] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should differ")
	}
}

func TestUndirectedMirrors(t *testing.T) {
	e := ErdosRenyi(50, 200, Config{Seed: 3, Undirected: true, NoSelfLoops: true})
	type edge struct{ u, v int }
	set := map[edge]bool{}
	for k := range e.Src {
		if e.Src[k] == e.Dst[k] {
			t.Fatal("self loop present")
		}
		set[edge{e.Src[k], e.Dst[k]}] = true
	}
	for k := range e.Src {
		if !set[edge{e.Dst[k], e.Src[k]}] {
			t.Fatal("missing mirror edge")
		}
	}
}

func TestGrid2D(t *testing.T) {
	e := Grid2D(3, 4, Config{Seed: 1, Undirected: true})
	a := e.Matrix()
	if a.Nrows() != 12 {
		t.Fatalf("n=%d", a.Nrows())
	}
	// Interior lattice: 2*rows*cols - rows - cols undirected edges, each
	// stored twice.
	wantEdges := 2 * (2*3*4 - 3 - 4)
	if a.Nvals() != wantEdges {
		t.Fatalf("nvals=%d want %d", a.Nvals(), wantEdges)
	}
	// Vertex 0 connects to 1 and 4.
	if _, err := a.GetElement(0, 1); err != nil {
		t.Fatal("0-1 missing")
	}
	if _, err := a.GetElement(0, 4); err != nil {
		t.Fatal("0-4 missing")
	}
	if _, err := a.GetElement(0, 5); err == nil {
		t.Fatal("0-5 must not exist")
	}
}

func TestSimpleTopologies(t *testing.T) {
	if p := Path(5, Config{}); len(p.Src) != 4 || p.N != 5 {
		t.Fatal("path")
	}
	if r := Ring(5, Config{}); len(r.Src) != 5 {
		t.Fatal("ring")
	}
	if s := Star(5, Config{}); len(s.Src) != 4 {
		t.Fatal("star")
	}
	if c := Complete(4, Config{}); len(c.Src) != 12 {
		t.Fatalf("complete directed: %d", len(c.Src))
	}
	if c := Complete(4, Config{Undirected: true}); len(c.Src) != 12 {
		t.Fatalf("complete undirected stores both directions: %d", len(c.Src))
	}
	if tr := Tree(10, Config{Seed: 1}); len(tr.Src) != 9 {
		t.Fatal("tree")
	}
}

func TestBipartite(t *testing.T) {
	e := Bipartite(10, 20, 100, Config{Seed: 5})
	if e.N != 30 {
		t.Fatalf("n=%d", e.N)
	}
	for k := range e.Src {
		if e.Src[k] >= 10 || e.Dst[k] < 10 {
			t.Fatal("edge does not cross the partition left→right")
		}
	}
}

func TestWeights(t *testing.T) {
	e := ErdosRenyi(20, 100, Config{Seed: 9, MinWeight: 2, MaxWeight: 5})
	for _, w := range e.W {
		if w < 2 || w > 5 {
			t.Fatalf("weight %v outside [2,5]", w)
		}
	}
	d := Path(4, Config{})
	for _, w := range d.W {
		if w != 1 {
			t.Fatal("default weight must be 1")
		}
	}
}

func TestWattsStrogatz(t *testing.T) {
	n, k := 100, 6
	// beta=0: a pure ring lattice with n*k/2 stored edges (directed both
	// ways here since Undirected=false adds reverse edges explicitly).
	e := WattsStrogatz(n, k, 0, Config{Seed: 1})
	if len(e.Src) != n*k {
		t.Fatalf("edges=%d want %d", len(e.Src), n*k)
	}
	// Vertex 0 connects to 1,2,3 and is connected from 97,98,99.
	found := map[int]bool{}
	for idx := range e.Src {
		if e.Src[idx] == 0 {
			found[e.Dst[idx]] = true
		}
	}
	for _, v := range []int{1, 2, 3, 97, 98, 99} {
		if !found[v] {
			t.Fatalf("lattice neighbour %d missing", v)
		}
	}
	// beta=1: same edge count, different structure.
	e2 := WattsStrogatz(n, k, 1, Config{Seed: 2})
	if len(e2.Src) != n*k {
		t.Fatalf("rewired edges=%d", len(e2.Src))
	}
	for idx := range e2.Src {
		if e2.Src[idx] == e2.Dst[idx] {
			t.Fatal("self loop after rewiring")
		}
	}
}

func TestBarabasiAlbert(t *testing.T) {
	e := BarabasiAlbert(500, 3, Config{Seed: 3})
	if e.N != 500 {
		t.Fatal("n")
	}
	deg := make([]int, e.N)
	for k := range e.Src {
		deg[e.Src[k]]++
		deg[e.Dst[k]]++
	}
	// Preferential attachment: heavy-tailed degrees — the max degree far
	// exceeds the mean.
	maxd, sum := 0, 0
	for _, d := range deg {
		sum += d
		if d > maxd {
			maxd = d
		}
	}
	mean := float64(sum) / float64(e.N)
	if float64(maxd) < 4*mean {
		t.Fatalf("max degree %d vs mean %.1f: not heavy-tailed", maxd, mean)
	}
	// Every non-seed vertex has at least one edge.
	for v := 1; v < e.N; v++ {
		if deg[v] == 0 {
			t.Fatalf("vertex %d isolated", v)
		}
	}
}

func TestBoolMatrix(t *testing.T) {
	e := Ring(6, Config{})
	b := e.BoolMatrix()
	if b.Nvals() != 6 {
		t.Fatalf("nvals=%d", b.Nvals())
	}
	if v, _ := b.GetElement(0, 1); v != true {
		t.Fatal("value")
	}
}

// TestNamed: each kind Named accepts is the generator call it names, edge
// for edge, and any other kind is an error.
func TestNamed(t *testing.T) {
	cfg := Config{Seed: 3, Undirected: true, MinWeight: 1, MaxWeight: 4}
	for _, tc := range []struct {
		kind string
		want *EdgeList
	}{
		{"rmat", RMAT(6, 4, cfg)},
		{"er", ErdosRenyi(64, 256, cfg)},
		{"grid", Grid2D(6, 6, cfg)},
		{"powerlaw", PowerLaw(64, 256, 2.1, cfg)},
	} {
		got, err := Named(tc.kind, 6, 4, 2.1, cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.kind, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: Named's graph differs from the generator's", tc.kind)
		}
	}
	if _, err := Named("kron", 6, 4, 2.1, cfg); err == nil {
		t.Error("an unknown kind was accepted")
	}
}
