package main

import (
	"context"
	"slices"
	"strings"
	"testing"
	"time"

	"lagraph/internal/catalog"
	"lagraph/internal/cluster"
	"lagraph/internal/gen"
	"lagraph/internal/lagraph"
	"lagraph/internal/leakcheck"
	"lagraph/internal/store"
)

// TestSnapshotLoopStops drives the daemon's background snapshotter the
// way main does — a cancelable context and a periodic interval — and
// pins both halves of its contract: ticks flush dirty graphs into the
// durable store, and context cancellation terminates the goroutine
// (leakcheck fails the test if it parks forever).
func TestSnapshotLoopStops(t *testing.T) {
	leakcheck.Check(t)
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	pers := store.NewPersister(st, cat)

	n := 1 << 4
	e := gen.PowerLaw(n, 4*n, 1.8, gen.Config{Seed: 7, Undirected: true, NoSelfLoops: true})
	g, err := lagraph.NewGraph(e.Matrix(), lagraph.Undirected)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Add("g", g); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		snapshotLoop(ctx, pers, 5*time.Millisecond)
	}()

	deadline := time.Now().Add(5 * time.Second)
	for len(pers.Dirty()) > 0 {
		if time.Now().After(deadline) {
			t.Fatal("snapshot loop never flushed the dirty graph")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("snapshot loop did not stop on context cancellation")
	}
}

// TestParsePeers pins the -peers grammar: id=url pairs, comma-separated,
// order-insensitive and strict, so every node builds the same topology
// or refuses to boot. A malformed entry fails in parsePeers itself
// ("bad -peers entry"); a well-formed document that is not a valid
// topology fails in Topology.Validate ("cluster: ...").
func TestParsePeers(t *testing.T) {
	two := []cluster.NodeInfo{{ID: "a", URL: "http://h:1"}, {ID: "b", URL: "http://h:2"}}
	cases := []struct {
		name  string
		spec  string
		epoch uint64
		want  []cluster.NodeInfo
		err   string // a substring of the error; "" when the spec is valid
	}{
		{"trailing slash trimmed", "a=http://h:1/,b=http://h:2//", 1, two, ""},
		{"empty parts skipped", " ,a=http://h:1,, b=http://h:2 ,", 1, two, ""},
		{"no separator", "a", 1, nil, "bad -peers entry"},
		{"no id", "=http://h:1", 1, nil, "bad -peers entry"},
		{"no url", "a=", 1, nil, "bad -peers entry"},
		{"url only a slash", "a=/", 1, nil, "cluster: node needs both id and url"},
		{"duplicate id", "a=http://h:1,a=http://h:2", 1, nil, "cluster: duplicate node id"},
		{"epoch 0", "a=http://h:1", 0, nil, "cluster: topology epoch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			topo, err := parsePeers(tc.spec, 1, tc.epoch)
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("parsePeers(%q, epoch %d): err = %v, want one naming %q", tc.spec, tc.epoch, err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatalf("parsePeers(%q): %v", tc.spec, err)
			}
			if !slices.Equal(topo.Nodes, tc.want) || topo.Epoch != tc.epoch || topo.Replicas != 1 {
				t.Errorf("parsePeers(%q) = %+v, want nodes %+v at epoch %d with 1 replica", tc.spec, topo, tc.want, tc.epoch)
			}
		})
	}
}
