package lagraph

// PageRank and FastSV iterate in workspaces allocated once: pairs of
// vectors swap roles every iteration, and at exit every workspace except
// the returned one is cleared back to grb's lane pool. A release bound to
// a vector before the swaps clears the result after an odd number of
// iterations, so these tests stop the loops after odd and even counts.

import (
	"bytes"
	"math"
	"testing"
)

// TestWorkspaceReleaseKeepsResult: the rank PageRank returns after k = 1…4
// iterations, cold and warm, is full, sums to 1 and repeats bit for bit on
// the same Graph; the warm prior is left as it was given. FastSV's labels
// after an odd and an even number of iterations are label propagation's.
func TestWorkspaceReleaseKeepsResult(t *testing.T) {
	for _, gr := range []struct {
		name string
		g    *Graph
	}{
		{"directed RMAT-10", rmatGraph(t, 10, 8, 5, false)},
		{"undirected RMAT-10", rmatGraph(t, 10, 8, 5, true)},
	} {
		g, n := gr.g, gr.g.N()
		prior, err := PageRankWith(g)
		if err != nil {
			t.Fatal(err)
		}
		priorBytes := tupleBytes(prior.Rank).Bytes()
		for k := 1; k <= 4; k++ {
			// A tolerance no residual reaches: every run does exactly k.
			opts := []Option{WithMaxIter(k), WithTolerance(1e-300)}
			for _, mode := range []struct {
				name string
				run  func() (*PageRankResult, error)
			}{
				{"cold", func() (*PageRankResult, error) { return PageRankWith(g, opts...) }},
				{"warm", func() (*PageRankResult, error) { return PageRankWarm(g, prior.Rank, opts...) }},
			} {
				first, err := mode.run()
				if err != nil {
					t.Fatal(err)
				}
				again, err := mode.run()
				if err != nil {
					t.Fatal(err)
				}
				if first.Iterations != k || first.Converged {
					t.Fatalf("%s %s k=%d: %d iterations, converged=%v", gr.name, mode.name, k, first.Iterations, first.Converged)
				}
				is, xs := first.Rank.ExtractTuples()
				if len(is) != n {
					t.Fatalf("%s %s k=%d: %d of %d vertices ranked", gr.name, mode.name, k, len(is), n)
				}
				sum := 0.0
				for _, x := range xs {
					sum += x
				}
				if math.Abs(sum-1) > 1e-9 {
					t.Fatalf("%s %s k=%d: ranks sum to %.15g, want 1", gr.name, mode.name, k, sum)
				}
				if !bytes.Equal(tupleBytes(first.Rank).Bytes(), tupleBytes(again.Rank).Bytes()) {
					t.Fatalf("%s %s k=%d: a second call on the same Graph returned different bits", gr.name, mode.name, k)
				}
			}
		}
		if !bytes.Equal(tupleBytes(prior.Rank).Bytes(), priorBytes) {
			t.Fatalf("%s: the warm prior changed", gr.name)
		}
	}

	parities := map[int]bool{}
	for _, gr := range []struct {
		name string
		g    *Graph
	}{
		{"64×64 lattice", unweightedLattice(64)},
		{"128×128 lattice", unweightedLattice(latticeSide)},
		{"undirected RMAT-12", rmatGraph(t, 12, 8, 99, true)},
		{"directed RMAT-10", rmatGraph(t, 10, 8, 5, false)},
	} {
		res, err := ConnectedComponentsWith(gr.g)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ConnectedComponentsLabelProp(gr.g)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(tupleBytes(res.Labels).Bytes(), tupleBytes(want).Bytes()) {
			t.Fatalf("%s: FastSV after %d iterations disagrees with label propagation", gr.name, res.Iterations)
		}
		parities[res.Iterations%2] = true
	}
	if !parities[0] || !parities[1] {
		t.Fatalf("FastSV converged after only odd or only even iteration counts (%v): the graphs no longer cover both", parities)
	}
}
