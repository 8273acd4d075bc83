// Package lagraph is the algorithm collection the paper proposes: the
// "library of high-level graph algorithms built on top of the GraphBLAS"
// of §V, together with the support utilities (§VI): cached graph
// properties, degree computations and basic measurements.
//
// Every algorithm here is formulated in GraphBLAS operations (mxm, mxv,
// vxm, eWise*, apply, select, reduce, assign, extract) on the grb
// substrate; classic pointer-chasing counterparts for testing and
// benchmarking live in internal/baseline.
package lagraph

import (
	"errors"
	"sync/atomic"

	"lagraph/internal/gen"
	"lagraph/internal/grb"
)

// Kind distinguishes directed adjacency from undirected (symmetric)
// adjacency.
type Kind int

const (
	// Directed adjacency: A(i,j) is the edge i→j.
	Directed Kind = iota
	// Undirected adjacency: A must be structurally symmetric.
	Undirected
)

// Errors reported by the algorithms.
var (
	// ErrNotUndirected is returned by algorithms that require symmetric
	// adjacency (triangle counting, k-truss, ...).
	ErrNotUndirected = errors.New("lagraph: algorithm requires an undirected graph")
	// ErrBadArgument is returned for out-of-range sources and similar.
	ErrBadArgument = errors.New("lagraph: bad argument")
	// ErrNoConvergence is returned when an iterative method hits its
	// iteration cap.
	ErrNoConvergence = errors.New("lagraph: iteration limit reached without convergence")
)

// Graph bundles a GraphBLAS adjacency matrix with cached derived
// properties, in the style of the LAGraph_Graph object: a property is
// unknown until an algorithm asks for it, then kept until InvalidateCache.
// Every property is published atomically (see cached), so goroutines
// sharing a graph whose A has no pending tuples may read, and race to
// build, any of them.
type Graph struct {
	// A is the (weighted) adjacency matrix; A(i,j) is the weight of edge
	// i→j.
	A    *grb.Matrix[float64]
	Kind Kind

	outDeg    cached[*grb.Vector[int64]]
	nselfLoop cached[int]
	symmetric cached[bool]
	tri       cached[tcInput]
}

// cached is one derived property of a Graph: an immutable value behind an
// atomic pointer. The first caller that misses builds it, settles it and
// stores it. Callers racing on a miss each build the same value (a pure
// function of A), so the last store wins and none is seen half-built.
type cached[T any] struct{ p atomic.Pointer[T] }

func (c *cached[T]) get(build func() T) T {
	if p := c.p.Load(); p != nil {
		return *p
	}
	return c.store(build())
}

// store publishes v after assembling any pending work it holds: a reader
// that found pending tuples would assemble them, a write.
func (c *cached[T]) store(v T) T {
	if s, ok := any(v).(interface{ Wait() }); ok {
		s.Wait()
	}
	c.p.Store(&v)
	return v
}

func (c *cached[T]) drop() { c.p.Store(nil) }

// InvalidateCache drops the cached derived properties (out-degrees,
// self-loop count, symmetry, the prepared triangle-count input). Call it
// after mutating A directly; the algorithms otherwise treat the adjacency
// as immutable, as LAGraph does.
func (g *Graph) InvalidateCache() {
	g.outDeg.drop()
	g.nselfLoop.drop()
	g.symmetric.drop()
	g.tri.drop()
}

// NewGraph wraps an adjacency matrix. The matrix is adopted, not copied.
func NewGraph(a *grb.Matrix[float64], kind Kind) (*Graph, error) {
	if a == nil {
		return nil, grb.ErrUninitialized
	}
	if a.Nrows() != a.Ncols() {
		return nil, grb.ErrDimensionMismatch
	}
	return &Graph{A: a, Kind: kind}, nil
}

// FromEdgeList builds a Graph from a generated edge list.
func FromEdgeList(e *gen.EdgeList, kind Kind) *Graph {
	g, err := NewGraph(e.Matrix(), kind)
	if err != nil {
		panic(err)
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.A.Nrows() }

// NEdges returns the number of stored adjacency entries.
func (g *Graph) NEdges() int { return g.A.Nvals() }

// OutDegree returns the cached out-degree vector (number of stored entries
// per row).
func (g *Graph) OutDegree() *grb.Vector[int64] {
	return g.outDeg.get(func() *grb.Vector[int64] {
		deg := grb.MustVector[int64](g.N())
		if err := grb.ReduceMatrixToVector[int64, bool](deg, nil, nil, grb.PlusMonoid[int64](), g.patternInt64(), nil); err != nil {
			panic(err)
		}
		return deg
	})
}

// NSelfLoops counts diagonal entries (cached).
func (g *Graph) NSelfLoops() int {
	return g.nselfLoop.get(func() int {
		d := grb.MustMatrix[float64](g.A.Nrows(), g.A.Ncols())
		if err := grb.SelectMatrix[float64, bool](d, nil, nil, grb.Diag[float64](0), g.A, nil); err != nil {
			panic(err)
		}
		return d.Nvals()
	})
}

// IsSymmetric reports structural and numerical symmetry of the adjacency
// (cached). It is computed, never assumed from Kind: an undirected graph
// adopts whatever matrix it is given. A meets Aᵀ through A's column
// cache, so no transpose is built.
func (g *Graph) IsSymmetric() bool {
	return g.symmetric.get(func() bool {
		eq := grb.MustMatrix[bool](g.A.Nrows(), g.A.Ncols())
		if err := grb.EWiseMultMatrix[float64, float64, bool, bool](eq, nil, nil, grb.Eq[float64](), g.A, g.A, grb.DescT1); err != nil {
			panic(err)
		}
		if eq.Nvals() != g.A.Nvals() {
			return false // patterns differ
		}
		allTrue, err := grb.ReduceMatrixToScalar(grb.LAndMonoid(), eq)
		if err != nil {
			return false
		}
		return allTrue
	})
}

// requireUndirected returns ErrNotUndirected unless the graph is declared
// undirected.
func (g *Graph) requireUndirected() error {
	if g.Kind != Undirected {
		return ErrNotUndirected
	}
	return nil
}

// checkSource validates a source vertex id.
func (g *Graph) checkSource(src int) error {
	if src < 0 || src >= g.N() {
		return ErrBadArgument
	}
	return nil
}

// Stats summarizes a graph: the "basic measurements" support utility the
// paper lists (§VI).
type Stats struct {
	N          int
	NEdges     int
	NSelfLoops int
	MinDegree  int64
	MaxDegree  int64
	AvgDegree  float64
	Density    float64
}

// Measure computes basic graph measurements.
func Measure(g *Graph) Stats {
	s := Stats{N: g.N(), NEdges: g.NEdges(), NSelfLoops: g.NSelfLoops()}
	deg := g.OutDegree()
	mx, err := grb.ReduceVectorToScalar(grb.MaxMonoid[int64](), deg)
	if err == nil && deg.Nvals() > 0 {
		s.MaxDegree = mx
	}
	if deg.Nvals() == g.N() {
		mn, err := grb.ReduceVectorToScalar(grb.MinMonoid[int64](), deg)
		if err == nil {
			s.MinDegree = mn
		}
	} // vertices with no entries have degree 0
	if s.N > 0 {
		s.AvgDegree = float64(s.NEdges) / float64(s.N)
		s.Density = float64(s.NEdges) / (float64(s.N) * float64(s.N))
	}
	return s
}

// DegreeHistogram returns counts of vertices by out-degree (index =
// degree), the degree-distribution measurement used to sanity-check
// scale-free generators.
func DegreeHistogram(g *Graph) []int {
	deg := g.OutDegree()
	is, xs := deg.ExtractTuples()
	maxd := int64(0)
	for _, d := range xs {
		if d > maxd {
			maxd = d
		}
	}
	hist := make([]int, maxd+1)
	for _, d := range xs {
		hist[d]++
	}
	hist[0] += g.N() - len(is)
	return hist
}

// patternInt64 returns a new matrix holding A's pattern with every weight
// replaced by 1 (int64), the form the counting algorithms (degrees,
// triangles, k-truss, subgraphs) multiply and reduce. The Graph keeps no
// copy: a caller caches what it derives from it, or runs once.
func (g *Graph) patternInt64() *grb.Matrix[int64] {
	p := grb.MustMatrix[int64](g.A.Nrows(), g.A.Ncols())
	if err := grb.ApplyMatrix[float64, int64, bool](p, nil, nil, grb.One[float64, int64](), g.A, nil); err != nil {
		panic(err)
	}
	return p
}
