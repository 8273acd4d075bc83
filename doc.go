// Package lagraph is a pure-Go reproduction of the system proposed in
// "LAGraph: A Community Effort to Collect Graph Algorithms Built on Top of
// the GraphBLAS" (Mattson, Davis, Kumar, Buluç, McMillan, Moreira, Yang —
// IPDPSW 2019): a GraphBLAS implementation (sparse linear algebra over
// arbitrary semirings) plus the LAGraph collection of graph algorithms
// built on it.
//
// The layering follows Figure 1 of the paper:
//
//	applications / examples (examples/, cmd/)
//	        │
//	algorithm library (internal/lagraph)   +  I/O & generators
//	        │                                 (internal/mmio, internal/gen)
//	GraphBLAS API (internal/grb)  — Matrix[T], Vector[T], semirings,
//	        │                        masks, descriptors, non-blocking mode
//	storage kernels — CSR/CSC/hypersparse, Gustavson/dot/heap mxm,
//	                  push–pull mxv, pending tuples & zombies
//
// This root package re-exports the most frequently used surface so that
// small programs need a single import. The full API lives in the
// subpackages.
package lagraph

import (
	"lagraph/internal/gen"
	"lagraph/internal/grb"
	"lagraph/internal/lagraph"
)

// Core object types, re-exported.
type (
	// Matrix is a GraphBLAS sparse matrix with entries of type T.
	Matrix[T any] = grb.Matrix[T]
	// Vector is a GraphBLAS sparse vector with entries of type T.
	Vector[T any] = grb.Vector[T]
	// Descriptor modifies GraphBLAS operations.
	Descriptor = grb.Descriptor
	// Graph bundles an adjacency matrix with cached properties.
	Graph = lagraph.Graph
	// Kind distinguishes directed from undirected graphs.
	Kind = lagraph.Kind
)

// Graph kinds.
const (
	Directed   = lagraph.Directed
	Undirected = lagraph.Undirected
)

// Triangle-count method selection, re-exported: the formulation family
// (TCMethod, TriangleCount's method argument) and degree presorting
// (TCPresort, set by WithPresort). TCAuto picks the formulation by
// LAGraph's rule — the masked dot SandiaLUT on a skewed graph, the saxpy
// SandiaLL otherwise — and, unless a presort is given, decides whether a
// degree relabeling pays, once per graph.
type (
	// TCMethod selects a triangle-count formulation.
	TCMethod = lagraph.TCMethod
	// TCPresort selects a degree relabeling applied before counting.
	TCPresort = lagraph.TCPresort
	// TCOption configures TriangleCount (WithPresort, …).
	TCOption = lagraph.Option
)

const (
	// TCAuto picks the formulation and presort from the graph's shape:
	// SandiaLUT on an ascending-degree relabel when the graph is skewed.
	TCAuto = lagraph.TCAuto
	// TCSandiaLL is the saxpy L·L formulation (masked by L).
	TCSandiaLL = lagraph.TCSandiaLL
	// TCSortAuto relabels by degree only when the rebuild pays: for the
	// saxpy pair when the estimated work on the natural ordering says so,
	// for the dot pair when the graph is skewed.
	TCSortAuto = lagraph.TCSortAuto
)

var (
	// WithPresort sets the degree presort for TriangleCount.
	WithPresort = lagraph.WithPresort
	// WithDamping sets PageRank's damping factor (default 0.85).
	WithDamping = lagraph.WithDamping
	// WithTolerance sets the convergence tolerance of fixed-point loops.
	WithTolerance = lagraph.WithTolerance
	// WithMaxIter caps the main iteration count.
	WithMaxIter = lagraph.WithMaxIter
	// WithDelta sets delta-stepping's bucket width (default 2).
	WithDelta = lagraph.WithDelta
)

// NewMatrix creates an empty nrows×ncols GraphBLAS matrix.
func NewMatrix[T any](nrows, ncols int) (*Matrix[T], error) {
	return grb.NewMatrix[T](nrows, ncols)
}

// NewVector creates an empty GraphBLAS vector of dimension n.
func NewVector[T any](n int) (*Vector[T], error) {
	return grb.NewVector[T](n)
}

// NewGraph wraps an adjacency matrix as a Graph.
func NewGraph(a *Matrix[float64], kind Kind) (*Graph, error) {
	return lagraph.NewGraph(a, kind)
}

// RMAT generates a scale-free graph with 2^scale vertices (Graph500
// parameters) and wraps it as a Graph.
func RMAT(scale, edgeFactor int, seed int64, undirected bool) *Graph {
	kind := Directed
	if undirected {
		kind = Undirected
	}
	return lagraph.FromEdgeList(gen.RMAT(scale, edgeFactor, gen.Config{
		Seed: seed, Undirected: undirected, NoSelfLoops: true,
	}), kind)
}

// The most used algorithms, re-exported; the full collection lives in
// internal/lagraph (see the examples directory for usage).
var (
	// BFSLevels computes direction-optimized BFS levels.
	BFSLevels = lagraph.BFSLevels
	// BFSParents computes the BFS parent tree with the ANY semiring.
	BFSParents = lagraph.BFSParents
	// PageRank computes damped PageRank with an L1 stopping tolerance;
	// tune it with WithDamping, WithTolerance, WithMaxIter.
	PageRank = lagraph.PageRankWith
	// TriangleCount counts triangles; see lagraph.TCMethod for kernels.
	TriangleCount = lagraph.TriangleCount
	// ConnectedComponents labels weakly connected components (FastSV).
	ConnectedComponents = lagraph.ConnectedComponentsFastSV
	// SSSP computes single-source shortest paths (delta-stepping); tune
	// the bucket width with WithDelta.
	SSSP = lagraph.SSSP
	// KCore computes the k-core decomposition.
	KCore = lagraph.KCore
	// HITS computes hub and authority scores; tune it with WithTolerance
	// and WithMaxIter.
	HITS = lagraph.HITSWith
	// Modularity scores a clustering.
	Modularity = lagraph.Modularity
	// Measure computes basic graph statistics.
	Measure = lagraph.Measure
)
