package svc

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lagraph/internal/catalog"
	"lagraph/internal/cluster"
	"lagraph/internal/leakcheck"
	"lagraph/internal/obs"
	"lagraph/internal/store"
	"lagraph/internal/wal"
)

// daemonSwap lets the httptest server exist (so its URL is known for
// the topology document) before the daemon behind it is booted.
type daemonSwap struct {
	mu sync.Mutex
	h  http.Handler
}

func (d *daemonSwap) set(h http.Handler) {
	d.mu.Lock()
	d.h = h
	d.mu.Unlock()
}

func (d *daemonSwap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	d.mu.Lock()
	h := d.h
	d.mu.Unlock()
	if h == nil {
		http.Error(w, "daemon down", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// testDaemon is one full svc+cluster member: catalog, store, WAL,
// cluster node and service layer behind one URL — the in-process
// equivalent of one `lagraphd -node-id=...` process.
type testDaemon struct {
	id   string
	dir  string
	swap *daemonSwap
	ts   *httptest.Server

	s    *Server
	cat  *catalog.Catalog
	pers *store.Persister
	jl   *wal.Log
	node *cluster.Node
}

func (d *testDaemon) boot(t *testing.T, top cluster.Topology, client *http.Client) {
	t.Helper()
	st, err := store.Open(d.dir)
	if err != nil {
		t.Fatal(err)
	}
	jl, err := wal.Open(d.dir+"/wal", wal.Options{NoSync: true, SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	p := store.NewPersister(st, cat)
	p.AttachWAL(jl)
	if _, err := p.LoadAll(); err != nil {
		t.Fatal(err)
	}
	n, err := cluster.New(cluster.Config{
		Self: d.id, Topology: top, Catalog: cat, Persister: p,
		Client: client, Poll: 25 * time.Millisecond, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.cat, d.pers, d.jl, d.node = cat, p, jl, n
	d.s = New(cat, &obs.Counters{}, Config{Persister: p, Cluster: n})
	d.s.MarkBootReady()
	d.swap.set(d.s.Handler())
	n.Start(t.Context())
}

func (d *testDaemon) kill() {
	d.swap.set(nil)
	if d.node != nil {
		d.node.Close()
		d.node = nil
	}
	if d.jl != nil {
		d.jl.Close()
		d.jl = nil
	}
}

// newSvcCluster boots len(ids) daemons sharing one topology document.
func newSvcCluster(t *testing.T, ids []string, replicas int) map[string]*testDaemon {
	t.Helper()
	leakcheck.Check(t)
	client := &http.Client{Timeout: 10 * time.Second}
	t.Cleanup(client.CloseIdleConnections)
	t.Cleanup(http.DefaultClient.CloseIdleConnections)
	ds := map[string]*testDaemon{}
	top := cluster.Topology{Epoch: 1, Replicas: replicas, VNodes: 16}
	for _, id := range ids {
		d := &testDaemon{id: id, dir: t.TempDir(), swap: &daemonSwap{}}
		d.ts = httptest.NewServer(d.swap)
		t.Cleanup(d.ts.Close)
		ds[id] = d
		top.Nodes = append(top.Nodes, cluster.NodeInfo{ID: id, URL: d.ts.URL})
	}
	for _, id := range ids {
		ds[id].boot(t, top, client)
		t.Cleanup(ds[id].kill)
	}
	return ds
}

// placementOf resolves (primary, replica, outsider) daemons for a graph
// name in a 3-node R=1 cluster.
func placementOf(t *testing.T, ds map[string]*testDaemon, name string) (primary, replica, outsider *testDaemon) {
	t.Helper()
	var any *testDaemon
	for _, d := range ds {
		any = d
		break
	}
	owners := any.node.Placement(name)
	if len(owners) != 2 {
		t.Fatalf("expected 2 owners for %q, got %+v", name, owners)
	}
	primary, replica = ds[owners[0].ID], ds[owners[1].ID]
	for id, d := range ds {
		if id != owners[0].ID && id != owners[1].ID {
			outsider = d
		}
	}
	return primary, replica, outsider
}

func waitSvc(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// noFollow performs one request without following redirects.
func noFollow(t *testing.T, method, url string, body []byte) *http.Response {
	t.Helper()
	c := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }}
	defer c.CloseIdleConnections()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp
}

// seedEdges pushes batches of deterministic edges through the primary's
// /v1 edges endpoint.
func seedEdges(t *testing.T, base, name string, n, batches, per int) {
	t.Helper()
	k := 0
	for b := 0; b < batches; b++ {
		edges := make([]map[string]any, 0, per)
		for i := 0; i < per; i++ {
			w := float64(1 + k%7)
			edges = append(edges, map[string]any{"src": k % n, "dst": (k*7 + 3) % n, "weight": w})
			k++
		}
		var resp EdgesResponse
		if code := post(t, base+"/v1/graphs/"+name+"/edges", map[string]any{"edges": edges}, &resp); code != http.StatusOK {
			t.Fatalf("edges batch %d: status %d", b, code)
		}
	}
}

// waitCaughtUp waits until the replica daemon holds name as a caught-up
// replica at the primary's generation.
func waitCaughtUp(t *testing.T, primary, replica *testDaemon, name string) {
	t.Helper()
	pe, err := primary.cat.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	waitSvc(t, 15*time.Second, name+" replica catch-up", func() bool {
		e, err := replica.cat.Get(name)
		return err == nil && e.Role() == catalog.RoleReplica &&
			e.ReplicaLag() == 0 && e.Generation() == pe.Generation()
	})
}

// TestClusterSvcRedirectFlow is the 3-node e2e: mutations and reads of
// graphs a node does not hold 307 to the primary, replicas serve
// checksummed read-only queries, a missing graph gets an authoritative
// 404 from its primary, listings carry placement, /readyz converges,
// metrics render the cluster families, and a drop through the service
// layer propagates to the replica.
func TestClusterSvcRedirectFlow(t *testing.T) {
	ds := newSvcCluster(t, []string{"n1", "n2", "n3"}, 1)
	const name = "ring-a"
	primary, replica, outsider := placementOf(t, ds, name)
	t.Logf("placement %s: primary=%s replica=%s outsider=%s", name, primary.id, replica.id, outsider.id)

	// Load via a NON-primary answers 307 with the primary's absolute URL.
	body, _ := json.Marshal(map[string]any{
		"name": name, "undirected": true,
		"generator": map[string]any{"kind": "powerlaw", "scale": 5, "edge_factor": 4, "seed": 7},
	})
	resp := noFollow(t, "POST", outsider.ts.URL+"/v1/graphs", body)
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("load via outsider: status %d, want 307", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != primary.ts.URL+"/v1/graphs" {
		t.Fatalf("load redirect Location %q, want %q", loc, primary.ts.URL+"/v1/graphs")
	}
	// The default client follows the 307 (re-sending the body), so a
	// client pointed at any node can still write.
	var props catalog.Properties
	if code := post(t, replica.ts.URL+"/v1/graphs", map[string]any{
		"name": name, "undirected": true,
		"generator": map[string]any{"kind": "powerlaw", "scale": 5, "edge_factor": 4, "seed": 7},
	}, &props); code != http.StatusCreated {
		t.Fatalf("load following redirect: status %d", code)
	}

	// Mutate through the primary; the replica catches up.
	seedEdges(t, primary.ts.URL, name, 32, 8, 16)
	waitCaughtUp(t, primary, replica, name)

	// Edges via the replica: 307, not read_only — routing runs before
	// the catalog sees the request.
	eb, _ := json.Marshal(map[string]any{"edges": []map[string]any{{"src": 1, "dst": 2}}})
	resp = noFollow(t, "POST", replica.ts.URL+"/v1/graphs/"+name+"/edges", eb)
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("edges via replica: status %d, want 307", resp.StatusCode)
	}

	// The replica serves the query locally, read-only, and its checksum
	// is bitwise identical to the primary's.
	var qp, qr QueryResponse
	if code := post(t, primary.ts.URL+"/v1/graphs/"+name+"/query", map[string]any{"algo": "pagerank"}, &qp); code != http.StatusOK {
		t.Fatalf("primary query: %d", code)
	}
	if code := post(t, replica.ts.URL+"/v1/graphs/"+name+"/query", map[string]any{"algo": "pagerank"}, &qr); code != http.StatusOK {
		t.Fatalf("replica query: %d", code)
	}
	if qp.Checksum == "" || qp.Checksum != qr.Checksum {
		t.Fatalf("checksum mismatch: primary %q replica %q", qp.Checksum, qr.Checksum)
	}
	if qp.Cluster == nil || qp.Cluster.Role != "primary" {
		t.Fatalf("primary query cluster info: %+v", qp.Cluster)
	}
	if qr.Cluster == nil || qr.Cluster.Role != "replica" || qr.Cluster.LagLSN != 0 {
		t.Fatalf("replica query cluster info: %+v", qr.Cluster)
	}

	// A query via the outsider redirects to the primary; the default
	// client follows it transparently.
	var qo QueryResponse
	if code := post(t, outsider.ts.URL+"/v1/graphs/"+name+"/query", map[string]any{"algo": "pagerank"}, &qo); code != http.StatusOK {
		t.Fatalf("outsider query: %d", code)
	}
	if qo.Checksum != qp.Checksum {
		t.Fatalf("outsider checksum %q != primary %q", qo.Checksum, qp.Checksum)
	}
	if outsider.node.Stats().Redirects == 0 {
		t.Fatal("outsider issued no redirects")
	}
	resp = noFollow(t, "GET", outsider.ts.URL+"/v1/graphs/"+name, nil)
	if loc := resp.Header.Get("Location"); resp.StatusCode != http.StatusTemporaryRedirect || loc != primary.ts.URL+"/v1/graphs/"+name {
		t.Fatalf("info via outsider: status %d Location %q, want 307 to the primary", resp.StatusCode, loc)
	}

	// A name nobody holds: the ring names a primary, and asking it yields
	// an authoritative 404, not another redirect.
	ghost := "ghost-" + name
	gp := ds[outsider.node.Placement(ghost)[0].ID]
	if code := post(t, gp.ts.URL+"/v1/graphs/"+ghost+"/query", map[string]any{"algo": "cc"}, nil); code != http.StatusNotFound {
		t.Fatalf("ghost query on its primary: %d, want 404", code)
	}

	// The replica's listing carries placement: role replica, lag 0.
	var list struct {
		Graphs     []string        `json:"graphs"`
		Placements []listPlacement `json:"placements"`
	}
	if code := get(t, replica.ts.URL+"/v1/graphs", &list); code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	found := false
	for _, pl := range list.Placements {
		if pl.Name == name {
			found = true
			if pl.Primary != primary.id || pl.Role != "replica" || pl.LagLSN != 0 {
				t.Fatalf("replica listing placement: %+v", pl)
			}
		}
	}
	if !found {
		t.Fatalf("listing lacks placement for %q: %+v", list.Placements, name)
	}

	// Every node reports ready, and the replica's metrics show the
	// cluster families converged to zero lag.
	for id, d := range ds {
		waitSvc(t, 15*time.Second, id+" readyz", func() bool {
			r, err := http.Get(d.ts.URL + "/readyz")
			if err != nil {
				return false
			}
			defer r.Body.Close()
			_, _ = io.Copy(io.Discard, r.Body)
			return r.StatusCode == http.StatusOK
		})
	}
	mr, err := http.Get(replica.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	for _, want := range []string{
		"lagraphd_cluster_replication_lag 0\n",
		"lagraphd_cluster_ready 1\n",
		"lagraphd_cluster_epoch 1\n",
	} {
		if !strings.Contains(string(mb), want) {
			t.Fatalf("replica metrics lack %q", strings.TrimSpace(want))
		}
	}
	if !strings.Contains(string(mb), "lagraphd_cluster_fetched_records_total") {
		t.Fatal("replica metrics lack fetched_records family")
	}

	// Drop through the service layer: 307 from the outsider, 204 from
	// the primary, and the replica discards its copy (no resurrection).
	resp = noFollow(t, "DELETE", outsider.ts.URL+"/v1/graphs/"+name, nil)
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("drop via outsider: status %d, want 307", resp.StatusCode)
	}
	req, _ := http.NewRequest("DELETE", primary.ts.URL+"/v1/graphs/"+name, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("drop via primary: status %d", dresp.StatusCode)
	}
	waitSvc(t, 15*time.Second, "replica discards dropped graph", func() bool {
		_, err := replica.cat.Get(name)
		return err != nil
	})
}

// TestClusterProtocolErrorsCounted: the cluster wire protocol's handlers
// live in the cluster package, and the status they write still lands in
// the "cluster" endpoint's status class on /metrics.
func TestClusterProtocolErrorsCounted(t *testing.T) {
	d := newSvcCluster(t, []string{"solo"}, 0)["solo"]
	if code := get(t, d.ts.URL+"/v1/cluster/wal?from=0", nil); code != http.StatusBadRequest {
		t.Fatalf("wal stream from 0: %d, want 400", code)
	}
	if code := get(t, d.ts.URL+"/v1/cluster/graphs/missing/snapshot", nil); code != http.StatusNotFound {
		t.Fatalf("snapshot of a missing graph: %d, want 404", code)
	}
	mr, err := http.Get(d.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	if want := `lagraphd_http_requests_total{endpoint="cluster",code="4xx"} 2`; !strings.Contains(string(mb), want) {
		t.Fatalf("metrics lack %q", want)
	}
}

// TestReadyz: /readyz and mutations wait for MarkBootReady exactly when
// the server has a Persister, whose boot recovery they must not race;
// /healthz answers 200 throughout — the two probes answer different
// questions.
func TestReadyz(t *testing.T) {
	for _, tc := range []struct {
		name      string
		persister bool
	}{
		{"no persister", false},
		{"persister then MarkBootReady", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var cfg Config
			if tc.persister {
				st, err := store.Open(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				cfg.Persister = store.NewPersister(st, catalog.New())
			}
			s, ts := newTestServer(t, cfg)
			if code := get(t, ts.URL+"/healthz", nil); code != http.StatusOK {
				t.Fatalf("healthz: %d", code)
			}
			if tc.persister {
				var doc map[string]any
				if code := get(t, ts.URL+"/readyz", &doc); code != http.StatusServiceUnavailable || doc["boot_recovered"] != false {
					t.Fatalf("readyz before boot-ready: %d %+v, want 503", code, doc)
				}
				var eb errorBody
				code := post(t, ts.URL+"/v1/graphs", map[string]any{
					"name": "early", "generator": map[string]any{"kind": "er", "scale": 3},
				}, &eb)
				if code != http.StatusServiceUnavailable || eb.Error.Code != "not_ready" || !eb.Error.Retryable {
					t.Fatalf("load during boot: %d %+v, want 503 not_ready retryable", code, eb.Error)
				}
				s.MarkBootReady()
			}
			var doc map[string]any
			if code := get(t, ts.URL+"/readyz", &doc); code != http.StatusOK || doc["ready"] != true || doc["cluster_synced"] != true {
				t.Fatalf("readyz when ready: %d %+v", code, doc)
			}
		})
	}
}

// TestClassifyClusterErrors pins the HTTP mapping of the two
// cluster-era error classes.
func TestClassifyClusterErrors(t *testing.T) {
	st, info := classify(fmt.Errorf("%w: %q", catalog.ErrReadOnly, "g"))
	if st != http.StatusConflict || info.Code != "read_only" || info.Retryable {
		t.Fatalf("read_only classify: %d %+v", st, info)
	}
	st, info = classify(fmt.Errorf("%w: sync", errNotReady))
	if st != http.StatusServiceUnavailable || info.Code != "not_ready" || !info.Retryable {
		t.Fatalf("not_ready classify: %d %+v", st, info)
	}
	if !errors.Is(fmt.Errorf("%w: x", errNotReady), errNotReady) {
		t.Fatal("errNotReady does not wrap")
	}
}
