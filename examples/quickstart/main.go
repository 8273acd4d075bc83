// Quickstart: the level-synchronous BFS of Fig. 2 of the paper, run on a
// small scale-free graph through the public facade.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	root "lagraph"
	"lagraph/internal/lagraph"
	"lagraph/internal/obs"
)

func main() {
	// A scale-free graph with 2^12 vertices and ~16 edges per vertex.
	g := root.RMAT(12, 16, 42, true)
	fmt.Printf("graph: %d vertices, %d edges\n", g.N(), g.NEdges())

	// The Fig. 2 loop, 1-based levels.
	levels, err := lagraph.BFSLevelSimple(g, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reached %d of %d vertices\n", levels.Nvals(), g.N())

	// Level histogram.
	_, xs := levels.ExtractTuples()
	hist := map[int32]int{}
	maxLevel := int32(0)
	for _, l := range xs {
		hist[l]++
		if l > maxLevel {
			maxLevel = l
		}
	}
	fmt.Println("level  vertices")
	for l := int32(1); l <= maxLevel; l++ {
		fmt.Printf("%5d  %d\n", l, hist[l])
	}

	// The production BFS records the push–pull decisions the paper's
	// §II-E describes.
	trace := obs.NewTrace(0)
	if _, err := root.BFSLevels(g, 0, lagraph.WithObserver(trace)); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\niteration  frontier  direction")
	for _, r := range trace.Iters() {
		fmt.Printf("%9d  %8d  %s\n", r.Iter-1, r.Frontier, r.Dir)
	}
}
