package lagraph

import (
	"container/heap"
	"math"

	"lagraph/internal/grb"
)

// A* search — one of the algorithms §V lists as "important but so far not
// implemented using a GraphBLAS-like library". This extension implements
// it against the GraphBLAS adjacency object: the open set is a priority
// queue, but every neighbourhood expansion is a masked row extraction
// from the opaque matrix, so the graph never leaves the GraphBLAS.

// Heuristic estimates the remaining distance from a vertex to the goal.
// It must be admissible (never overestimate) for A* to return shortest
// paths.
type Heuristic func(v int) float64

// ZeroHeuristic degrades A* to Dijkstra.
func ZeroHeuristic(int) float64 { return 0 }

// GridManhattan returns an admissible heuristic for a rows×cols grid
// graph with unit-or-larger weights, targeting vertex goal.
func GridManhattan(cols, goal int) Heuristic {
	gr, gc := goal/cols, goal%cols
	return func(v int) float64 {
		r, c := v/cols, v%cols
		return math.Abs(float64(r-gr)) + math.Abs(float64(c-gc))
	}
}

type aItem struct {
	v int
	f float64
}

type aHeap []aItem

func (h aHeap) Len() int            { return len(h) }
func (h aHeap) Less(i, j int) bool  { return h[i].f < h[j].f }
func (h aHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *aHeap) Push(x interface{}) { *h = append(*h, x.(aItem)) }
func (h *aHeap) Pop() interface{} {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// AStar returns a shortest path from src to dst and its cost, or ok=false
// if dst is unreachable. Edge weights must be non-negative.
func AStar(g *Graph, src, dst int, h Heuristic) (path []int, cost float64, ok bool, err error) {
	defer catch(&err)
	try(g.checkSource(src))
	try(g.checkSource(dst))
	if h == nil {
		h = ZeroHeuristic
	}
	n := g.N()
	dist := make([]float64, n)
	parent := make([]int, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		parent[i] = -1
	}
	dist[src] = 0
	open := &aHeap{{src, h(src)}}
	row := grb.MustVector[float64](n)
	for open.Len() > 0 {
		it := heap.Pop(open).(aItem)
		u := it.v
		if it.f > dist[u]+h(u) {
			continue // stale entry
		}
		if u == dst {
			break
		}
		// Neighbourhood expansion through the GraphBLAS: row u of A.
		row.Clear()
		try(grb.ExtractMatrixCol(row, (*grb.Vector[bool])(nil), nil, g.A, grb.All, u, grb.DescT0))
		vi, vw := row.ExtractTuples()
		for k, v := range vi {
			nd := dist[u] + vw[k]
			if nd < dist[v] {
				dist[v] = nd
				parent[v] = u
				heap.Push(open, aItem{v, nd + h(v)})
			}
		}
	}
	if math.IsInf(dist[dst], 1) {
		return nil, 0, false, nil
	}
	for v := dst; v != -1; v = parent[v] {
		path = append(path, v)
		if v == src {
			break
		}
	}
	// reverse
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, dist[dst], true, nil
}
