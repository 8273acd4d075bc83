package lagraph

import (
	"context"
	"errors"
	"testing"
	"time"

	"lagraph/internal/gen"
	"lagraph/internal/grb"
)

// cancelGraph builds a small undirected graph every algorithm accepts.
func cancelGraph(t *testing.T) *Graph {
	t.Helper()
	e := gen.PowerLaw(256, 2048, 1.8, gen.Config{Seed: 3, Undirected: true, NoSelfLoops: true})
	g, err := NewGraph(e.Matrix(), Undirected)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestCancellationAllAlgorithms: with an already-done context every
// Options-accepting iterative algorithm must return an error matching
// both grb.ErrCanceled and the context's cause — before completing (the
// per-iteration check fires on iteration one).
func TestCancellationAllAlgorithms(t *testing.T) {
	g := cancelGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := WithContext(ctx)

	// The warm starts need priors they accept, so that they reach their
	// loops: full results, and for the BFS repair an inserted edge from the
	// source to its deepest vertex, which lowers a level.
	rank, err := PageRankWith(g)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := ConnectedComponentsWith(g)
	if err != nil {
		t.Fatal(err)
	}
	bridged := cancelGraph(t)
	levels, err := BFSLevels(bridged, 0)
	if err != nil {
		t.Fatal(err)
	}
	is, xs := levels.ExtractTuples()
	far := 0
	for k := range is {
		if xs[k] > xs[far] {
			far = k
		}
	}
	if err := bridged.A.SetElements([]int{0, is[far]}, []int{is[far], 0}, []float64{1, 1}, nil); err != nil {
		t.Fatal(err)
	}
	bridged.InvalidateCache()
	bridge := &Delta{AddSrc: []int{0}, AddDst: []int{is[far]}}
	if _, rounds, err := IncrementalBFSLevels(bridged, 0, levels, bridge); err != nil || rounds == 0 {
		t.Fatalf("the bridge must give the repair rounds to run: %d rounds, %v", rounds, err)
	}

	runs := map[string]func() error{
		"BFSLevels":     func() error { _, err := BFSLevels(g, 0, opt); return err },
		"BFSParents":    func() error { _, err := BFSParents(g, 0, opt); return err },
		"SSSP":          func() error { _, err := SSSP(g, 0, opt); return err },
		"SSSPBellman":   func() error { _, err := SSSPBellmanFord(g, 0, opt); return err },
		"PageRankWith":  func() error { _, err := PageRankWith(g, opt); return err },
		"HITSWith":      func() error { _, err := HITSWith(g, opt); return err },
		"CCFastSV":      func() error { _, err := ConnectedComponentsFastSV(g, opt); return err },
		"CCLabelProp":   func() error { _, err := ConnectedComponentsLabelProp(g, opt); return err },
		"MIS":           func() error { _, err := MIS(g, 1, opt); return err },
		"TriangleCount": func() error { _, err := TriangleCount(g, TCSandiaDot, opt); return err },
		"KTruss":        func() error { _, err := KTruss(g, 3, opt); return err },
		"APSP":          func() error { _, err := APSP(g, opt); return err },
		"CCWith":        func() error { _, err := ConnectedComponentsWith(g, opt); return err },
		"PageRankWarm":  func() error { _, err := PageRankWarm(g, rank.Rank, opt); return err },
		"IncrementalCC": func() error { _, err := IncrementalCC(g, cc.Labels, &Delta{}, opt); return err },
		"IncrementalBFSLevels": func() error {
			_, _, err := IncrementalBFSLevels(bridged, 0, levels, bridge, opt)
			return err
		},
	}
	for name, run := range runs {
		t.Run(name, func(t *testing.T) {
			err := run()
			if !errors.Is(err, grb.ErrCanceled) {
				t.Fatalf("want grb.ErrCanceled, got %v", err)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("context cause lost: %v", err)
			}
		})
	}
}

// TestDeadlineCause: a deadline-based context must surface
// context.DeadlineExceeded as the cause alongside grb.ErrCanceled.
func TestDeadlineCause(t *testing.T) {
	g := cancelGraph(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	_, err := PageRankWith(g, WithContext(ctx))
	if !errors.Is(err, grb.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want ErrCanceled+DeadlineExceeded, got %v", err)
	}
}

// TestLiveContextCompletes: a context that never fires must not perturb
// results — same output as the no-option call.
func TestLiveContextCompletes(t *testing.T) {
	g := cancelGraph(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	with, err := BFSLevels(g, 0, WithContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	without, err := BFSLevels(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	wi, wx := with.ExtractTuples()
	oi, ox := without.ExtractTuples()
	if len(wi) != len(oi) {
		t.Fatalf("nvals differ: %d vs %d", len(wi), len(oi))
	}
	for k := range wi {
		if wi[k] != oi[k] || wx[k] != ox[k] {
			t.Fatalf("tuple %d differs: (%d,%d) vs (%d,%d)", k, wi[k], wx[k], oi[k], ox[k])
		}
	}
}
