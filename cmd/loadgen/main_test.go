package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"lagraph/internal/catalog"
	"lagraph/internal/leakcheck"
	"lagraph/internal/obs"
	"lagraph/internal/svc"
)

// TestRunAgainstRealService drives the full loadgen round-trip — load,
// concurrent query mix, determinism check, metrics validation — against
// an in-process service. It is the regression test for the worker-pool
// restructure: the job queue is filled and closed before any worker
// starts, so when run() returns there is no feeder goroutine left behind
// for leakcheck to catch.
func TestRunAgainstRealService(t *testing.T) {
	leakcheck.Check(t)
	t.Cleanup(http.DefaultClient.CloseIdleConnections)
	s := svc.New(catalog.New(), &obs.Counters{}, svc.Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	opts := options{
		bases: []string{ts.URL}, name: "loadgen-test", scale: 5,
		queries: 24, parallel: 4, wait: 2 * time.Second,
	}
	if err := run(opts); err != nil {
		t.Fatalf("run: %v", err)
	}
	// CI's server-smoke shape: -dual with no -edges must still load the
	// mutation copy its rounds ingest into.
	opts.dual, opts.dualRounds = true, 2
	if err := run(opts); err != nil {
		t.Fatalf("run -dual: %v", err)
	}
}

// TestRunReportsUnhealthyDaemon pins the failure path: no daemon behind
// the URL must surface as an error, not a hang, within the -wait budget.
func TestRunReportsUnhealthyDaemon(t *testing.T) {
	leakcheck.Check(t)
	ts := httptest.NewServer(http.NotFoundHandler())
	ts.Close()
	err := run(options{bases: []string{ts.URL}, wait: 100 * time.Millisecond})
	if err == nil {
		t.Fatal("run against a dead daemon succeeded")
	}
}

// TestClusterLaggingNeedsEveryOwner: a replica that has not discovered a
// graph yet lists nothing to compare, and convergence must not read that
// as caught up — every polled node the placement names must hold it.
func TestClusterLaggingNeedsEveryOwner(t *testing.T) {
	leakcheck.Check(t)
	node := func(status, topology string) string {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /v1/cluster/status", func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, status) })
		mux.HandleFunc("GET /v1/cluster/topology", func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, topology) })
		ts := httptest.NewServer(mux)
		t.Cleanup(ts.Close)
		return ts.URL
	}
	client := &http.Client{}
	t.Cleanup(client.CloseIdleConnections)
	primary := node(`{"node":"a","ready":true,"graphs":[{"name":"g","role":"primary","generation":3,"journal":3}]}`,
		`{"placements":[{"name":"g","nodes":["a","b"]}]}`)
	for _, tc := range []struct {
		name, replicaStatus string
		converged           bool
	}{
		{"replica has not discovered the graph", `{"node":"b","ready":true,"graphs":[]}`, false},
		{"replica caught up", `{"node":"b","ready":true,"graphs":[{"name":"g","role":"replica","generation":3,"journal":3}]}`, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			replica := node(tc.replicaStatus, `{"placements":[]}`)
			lagging, err := clusterLagging(client, []string{primary, replica})
			if err != nil {
				t.Fatal(err)
			}
			if (lagging == "") != tc.converged {
				t.Fatalf("lagging %q, want converged=%v", lagging, tc.converged)
			}
		})
	}
}
