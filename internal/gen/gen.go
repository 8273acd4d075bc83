// Package gen generates synthetic graphs: the scale-free (RMAT/Kronecker)
// generator the paper lists among the required LAGraph support libraries
// (§VI), plus Erdős–Rényi, grid, path, ring, star, complete and bipartite
// generators used by the test and benchmark harnesses. RMAT graphs stand
// in for the web-scale datasets of the papers the position paper cites
// (Graph500 and the GAP benchmark suite use the same generator family).
package gen

import (
	"fmt"
	"math/rand"

	"lagraph/internal/grb"
)

// Config controls the shape of generated graphs.
type Config struct {
	// Undirected mirrors every generated edge.
	Undirected bool
	// NoSelfLoops discards i→i edges.
	NoSelfLoops bool
	// MinWeight/MaxWeight bound the uniform random edge weights; if both
	// are zero, weights default to 1.
	MinWeight, MaxWeight float64
	// Seed makes generation reproducible.
	Seed int64
}

func (c Config) rng() *rand.Rand { return rand.New(rand.NewSource(c.Seed)) }

func (c Config) weight(rng *rand.Rand) float64 {
	if c.MinWeight == 0 && c.MaxWeight == 0 {
		return 1
	}
	return c.MinWeight + rng.Float64()*(c.MaxWeight-c.MinWeight)
}

// EdgeList is a set of weighted directed edges over n vertices.
type EdgeList struct {
	N       int
	Src     []int
	Dst     []int
	W       []float64
	HasDups bool
}

// Matrix assembles the edge list into an n×n adjacency matrix, keeping
// the first weight when the generator produced duplicate edges (so weight
// ranges are preserved for shortest-path workloads).
func (e *EdgeList) Matrix() *grb.Matrix[float64] {
	a := grb.MustMatrix[float64](e.N, e.N)
	if err := a.Build(e.Src, e.Dst, e.W, grb.First[float64, float64]()); err != nil {
		panic(err)
	}
	return a
}

// BoolMatrix assembles the unweighted pattern of the edge list.
func (e *EdgeList) BoolMatrix() *grb.Matrix[bool] {
	xs := make([]bool, len(e.Src))
	for i := range xs {
		xs[i] = true
	}
	a := grb.MustMatrix[bool](e.N, e.N)
	if err := a.Build(e.Src, e.Dst, xs, grb.LOr()); err != nil {
		panic(err)
	}
	return a
}

func (e *EdgeList) add(rng *rand.Rand, cfg Config, u, v int, w float64) {
	if cfg.NoSelfLoops && u == v {
		return
	}
	e.Src = append(e.Src, u)
	e.Dst = append(e.Dst, v)
	e.W = append(e.W, w)
	if cfg.Undirected && u != v {
		e.Src = append(e.Src, v)
		e.Dst = append(e.Dst, u)
		e.W = append(e.W, w)
	}
}

// Named builds the graph the command line and the daemon name by kind:
// "rmat" (RMAT at scale), "er" (Erdős–Rényi on 2^scale vertices), "grid" (a
// scale×scale lattice) or "powerlaw" (exponent alpha on 2^scale vertices),
// each with edgeFactor edges a vertex but the lattice. Any other kind is an
// error.
func Named(kind string, scale, edgeFactor int, alpha float64, cfg Config) (*EdgeList, error) {
	switch kind {
	case "rmat":
		return RMAT(scale, edgeFactor, cfg), nil
	case "er":
		n := 1 << scale
		return ErdosRenyi(n, edgeFactor*n, cfg), nil
	case "grid":
		return Grid2D(scale, scale, cfg), nil
	case "powerlaw":
		n := 1 << scale
		return PowerLaw(n, edgeFactor*n, alpha, cfg), nil
	}
	return nil, fmt.Errorf("unknown generator %q", kind)
}

// RMAT generates a recursive-matrix (Kronecker-like) scale-free graph with
// 2^scale vertices and edgeFactor·2^scale edges, using the standard
// Graph500 partition probabilities a=0.57, b=0.19, c=0.19, d=0.05.
func RMAT(scale, edgeFactor int, cfg Config) *EdgeList {
	return RMATProb(scale, edgeFactor, 0.57, 0.19, 0.19, cfg)
}

// RMATProb is RMAT with explicit quadrant probabilities a, b, c (d is the
// remainder).
func RMATProb(scale, edgeFactor int, a, b, c float64, cfg Config) *EdgeList {
	rng := cfg.rng()
	n := 1 << scale
	m := edgeFactor * n
	e := &EdgeList{N: n, HasDups: true}
	for k := 0; k < m; k++ {
		u, v := 0, 0
		for bit := 0; bit < scale; bit++ {
			r := rng.Float64()
			switch {
			case r < a:
				// upper-left: nothing to set
			case r < a+b:
				v |= 1 << bit
			case r < a+b+c:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		e.add(rng, cfg, u, v, cfg.weight(rng))
	}
	return e
}

// PowerLaw generates m edges whose sources follow a Zipf power-law degree
// distribution with exponent alpha > 1 (a handful of hubs emit most of
// the edges) and whose destinations are uniform. This is the adversarial
// input for equal-count row partitioning — nearly all flops concentrate
// in a few rows — and the workload of the BenchmarkSkewed* suite.
func PowerLaw(n, m int, alpha float64, cfg Config) *EdgeList {
	rng := cfg.rng()
	if alpha <= 1 {
		alpha = 1.5
	}
	z := rand.NewZipf(rng, alpha, 1, uint64(n-1))
	e := &EdgeList{N: n, HasDups: true}
	for k := 0; k < m; k++ {
		e.add(rng, cfg, int(z.Uint64()), rng.Intn(n), cfg.weight(rng))
	}
	return e
}

// ErdosRenyi generates a G(n, m) uniform random multigraph with m edge
// draws.
func ErdosRenyi(n, m int, cfg Config) *EdgeList {
	rng := cfg.rng()
	e := &EdgeList{N: n, HasDups: true}
	for k := 0; k < m; k++ {
		e.add(rng, cfg, rng.Intn(n), rng.Intn(n), cfg.weight(rng))
	}
	return e
}

// Grid2D generates a rows×cols lattice with 4-neighbour connectivity —
// the synthetic stand-in for a road network (bounded degree, large
// diameter).
func Grid2D(rows, cols int, cfg Config) *EdgeList {
	rng := cfg.rng()
	e := &EdgeList{N: rows * cols}
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				w := cfg.weight(rng)
				e.add(rng, cfg, id(r, c), id(r, c+1), w)
				if !cfg.Undirected {
					e.add(rng, cfg, id(r, c+1), id(r, c), cfg.weight(rng))
				}
			}
			if r+1 < rows {
				w := cfg.weight(rng)
				e.add(rng, cfg, id(r, c), id(r+1, c), w)
				if !cfg.Undirected {
					e.add(rng, cfg, id(r+1, c), id(r, c), cfg.weight(rng))
				}
			}
		}
	}
	return e
}

// Path generates the path 0→1→…→n-1.
func Path(n int, cfg Config) *EdgeList {
	rng := cfg.rng()
	e := &EdgeList{N: n}
	for i := 0; i+1 < n; i++ {
		e.add(rng, cfg, i, i+1, cfg.weight(rng))
	}
	return e
}

// Ring generates the cycle 0→1→…→n-1→0.
func Ring(n int, cfg Config) *EdgeList {
	rng := cfg.rng()
	e := &EdgeList{N: n}
	for i := 0; i < n; i++ {
		e.add(rng, cfg, i, (i+1)%n, cfg.weight(rng))
	}
	return e
}

// Star generates a star with hub 0 and n-1 leaves.
func Star(n int, cfg Config) *EdgeList {
	rng := cfg.rng()
	e := &EdgeList{N: n}
	for i := 1; i < n; i++ {
		e.add(rng, cfg, 0, i, cfg.weight(rng))
	}
	return e
}

// Complete generates the complete graph on n vertices (directed: all
// ordered pairs).
func Complete(n int, cfg Config) *EdgeList {
	rng := cfg.rng()
	e := &EdgeList{N: n}
	for i := 0; i < n; i++ {
		lo := 0
		if cfg.Undirected {
			lo = i + 1
		}
		for j := lo; j < n; j++ {
			if i == j {
				continue
			}
			e.add(rng, cfg, i, j, cfg.weight(rng))
		}
	}
	return e
}

// Bipartite generates a random bipartite graph: n1 left vertices, n2
// right vertices (numbered n1..n1+n2-1), m random edges from left to
// right.
func Bipartite(n1, n2, m int, cfg Config) *EdgeList {
	rng := cfg.rng()
	e := &EdgeList{N: n1 + n2, HasDups: true}
	for k := 0; k < m; k++ {
		e.add(rng, cfg, rng.Intn(n1), n1+rng.Intn(n2), cfg.weight(rng))
	}
	return e
}

// Tree generates a random recursive tree: vertex i attaches to a uniform
// random earlier vertex.
func Tree(n int, cfg Config) *EdgeList {
	rng := cfg.rng()
	e := &EdgeList{N: n}
	for i := 1; i < n; i++ {
		e.add(rng, cfg, rng.Intn(i), i, cfg.weight(rng))
	}
	return e
}

// WattsStrogatz generates a small-world graph: a ring lattice where each
// vertex connects to its k nearest neighbours (k even), with each edge
// rewired to a random endpoint with probability beta.
func WattsStrogatz(n, k int, beta float64, cfg Config) *EdgeList {
	rng := cfg.rng()
	e := &EdgeList{N: n}
	if k >= n {
		k = n - 1
	}
	for u := 0; u < n; u++ {
		for d := 1; d <= k/2; d++ {
			v := (u + d) % n
			if rng.Float64() < beta {
				// Rewire to a random non-self endpoint.
				v = rng.Intn(n)
				for v == u {
					v = rng.Intn(n)
				}
			}
			e.add(rng, cfg, u, v, cfg.weight(rng))
			if !cfg.Undirected {
				e.add(rng, cfg, v, u, cfg.weight(rng))
			}
		}
	}
	return e
}

// BarabasiAlbert generates a preferential-attachment scale-free graph:
// each new vertex attaches m edges to existing vertices with probability
// proportional to their degree.
func BarabasiAlbert(n, m int, cfg Config) *EdgeList {
	rng := cfg.rng()
	e := &EdgeList{N: n}
	if n < 2 {
		return e
	}
	if m < 1 {
		m = 1
	}
	// Repeated-endpoint list: sampling uniformly from it is sampling
	// proportionally to degree.
	targets := []int{0}
	for v := 1; v < n; v++ {
		picked := map[int]bool{}
		edges := m
		if v < m {
			edges = v
		}
		for len(picked) < edges {
			u := targets[rng.Intn(len(targets))]
			if u == v || picked[u] {
				// Fall back to uniform to escape degenerate early rounds.
				u = rng.Intn(v)
				if picked[u] {
					continue
				}
			}
			picked[u] = true
		}
		for u := range picked {
			e.add(rng, cfg, u, v, cfg.weight(rng))
			if !cfg.Undirected {
				e.add(rng, cfg, v, u, cfg.weight(rng))
			}
			targets = append(targets, u, v)
		}
	}
	return e
}
