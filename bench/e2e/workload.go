package main

import (
	"lagraph/internal/gen"
)

// topologySeed fixes every graph's edges and weights. Graphs are datasets,
// frozen like their sizes: PageRank and FastSV iteration counts depend on
// the topology, so a graph drawn from -seed would make pagerank_ms and
// cc_ms differ by tens of percent between seeds. -seed draws what a caller
// chooses: traversal sources, the query order and the tuples written.
const topologySeed = 20190520

// workload is one set of inputs. Both workloads run the same code — the six
// GAP kernels through internal/lagraph and, in the trace pass, a volatile
// and a durable lagraphd over loopback — so every metric is defined on both;
// what differs is the shape of the graphs, and with it the layer the time
// sits in. BENCHMARK.json says why each exists.
type workload struct {
	name string

	// lib is the graph the kernels are timed on; read and ingest are the
	// graphs the trace pass loads into the volatile and the durable daemon.
	lib, read, ingest func(toy bool) *gen.EdgeList

	// Calls per trial, chosen so that a trial is about 0.1 s of identical
	// work (README, "How the sizes were chosen") and never over 0.6 s.
	bfsSources, ssspSources, bcBatch int
	prRuns, ccRuns, tcRuns           int

	// openRate is the open-loop arrival rate in requests per second: between
	// a quarter and a third of the closed-loop capacity measured when the
	// benchmark was written.
	openRate float64

	// Known answers that need no oracle; -1 where only the oracle knows.
	triangles  int64
	components int
}

func graphConfig() gen.Config {
	return gen.Config{Undirected: true, NoSelfLoops: true, MinWeight: 1, MaxWeight: 10, Seed: topologySeed}
}

func rmat(scale, toyScale, edgeFactor int) func(bool) *gen.EdgeList {
	return func(toy bool) *gen.EdgeList {
		if toy {
			return gen.RMAT(toyScale, edgeFactor, graphConfig())
		}
		return gen.RMAT(scale, edgeFactor, graphConfig())
	}
}

func grid(side, toySide int) func(bool) *gen.EdgeList {
	return func(toy bool) *gen.EdgeList {
		if toy {
			return gen.Grid2D(toySide, toySide, graphConfig())
		}
		return gen.Grid2D(side, side, graphConfig())
	}
}

var workloads = []workload{
	{
		name: "rmat",
		lib:  rmat(14, 8, 16), read: rmat(8, 6, 8), ingest: rmat(13, 8, 16),
		bfsSources: 48, ssspSources: 2, bcBatch: 4, prRuns: 2, ccRuns: 5, tcRuns: 1,
		openRate:  1000,
		triangles: -1, components: -1,
	},
	{
		name: "grid",
		lib:  grid(128, 12), read: grid(32, 8), ingest: grid(64, 12),
		bfsSources: 4, ssspSources: 1, bcBatch: 1, prRuns: 3, ccRuns: 2, tcRuns: 10,
		openRate:  200,
		triangles: 0, components: 1,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
