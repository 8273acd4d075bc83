package svc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lagraph/internal/catalog"
	"lagraph/internal/leakcheck"
	"lagraph/internal/obs"
)

// newTestServer starts an httptest server over a fresh catalog. Every
// server test doubles as a goroutine-leak test: the leakcheck baseline
// is taken before the server starts, and the post helper's keep-alive
// connections (http.DefaultClient) are dropped before the leak gate runs
// at cleanup.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	leakcheck.Check(t)
	t.Cleanup(http.DefaultClient.CloseIdleConnections)
	s := New(catalog.New(), &obs.Counters{}, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// post sends a JSON body and decodes the JSON response into out (if
// non-nil), returning the status code.
func post(t *testing.T, url string, body any, out any) int {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && len(data) > 0 {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decode %s: %v: %s", url, err, data)
		}
	}
	return resp.StatusCode
}

// loadGraph registers a deterministic generated graph and returns its
// reported properties.
func loadGraph(t *testing.T, base, name string, scale int) catalog.Properties {
	t.Helper()
	var p catalog.Properties
	code := post(t, base+"/v1/graphs", map[string]any{
		"name": name, "undirected": true,
		"generator": map[string]any{"kind": "powerlaw", "scale": scale, "edge_factor": 8, "seed": 42},
	}, &p)
	if code != http.StatusCreated {
		t.Fatalf("load: status %d", code)
	}
	return p
}

// TestEndToEnd is the e2e acceptance flow: load → query (with trace) →
// properties → drop, all over real HTTP.
func TestEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	p := loadGraph(t, ts.URL, "e2e", 8)
	if p.N != 256 || p.NEdges == 0 || !p.Warm {
		t.Fatalf("load properties: %+v", p)
	}
	if !p.Symmetric || p.Directed {
		t.Fatalf("undirected generated graph misdescribed: %+v", p)
	}

	// Duplicate load without replace → 409.
	if code := post(t, ts.URL+"/v1/graphs", map[string]any{
		"name": "e2e", "generator": map[string]any{"kind": "er", "scale": 4},
	}, nil); code != http.StatusConflict {
		t.Fatalf("duplicate load: status %d, want 409", code)
	}

	// List includes the graph.
	resp, err := http.Get(ts.URL + "/v1/graphs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Graphs []string      `json:"graphs"`
		Stats  catalog.Stats `json:"stats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Graphs) != 1 || list.Graphs[0] != "e2e" {
		t.Fatalf("list = %+v", list)
	}

	// Query with a trace attached; run twice and require identical
	// checksums (the determinism contract over HTTP).
	var q1, q2 QueryResponse
	if code := post(t, ts.URL+"/v1/graphs/e2e/query",
		map[string]any{"algo": "bfs", "src": 0, "trace": true}, &q1); code != 200 {
		t.Fatalf("query: status %d", code)
	}
	if q1.Checksum == "" || q1.Result["reached"] == nil {
		t.Fatalf("query response incomplete: %+v", q1)
	}
	if q1.Trace == nil || q1.Trace.Schema != obs.TraceSchema || len(q1.Trace.Iters) == 0 {
		t.Fatalf("trace missing or empty: %+v", q1.Trace)
	}
	if code := post(t, ts.URL+"/v1/graphs/e2e/query",
		map[string]any{"algo": "bfs", "src": 0}, &q2); code != 200 {
		t.Fatalf("re-query: status %d", code)
	}
	if q1.Checksum != q2.Checksum {
		t.Fatalf("nondeterministic checksums: %s vs %s", q1.Checksum, q2.Checksum)
	}

	// The rest of the algorithm mix must all succeed.
	for _, algo := range []string{"parents", "sssp", "bellmanford", "pagerank", "cc", "tc", "ktruss", "mis", "hits"} {
		var qr QueryResponse
		if code := post(t, ts.URL+"/v1/graphs/e2e/query", map[string]any{"algo": algo, "src": 1}, &qr); code != 200 {
			t.Fatalf("query %s: status %d", algo, code)
		}
		if len(qr.Result) == 0 {
			t.Fatalf("query %s: empty result", algo)
		}
	}

	// Error mapping: unknown algo 400 (cc-lp is a library algorithm, not a
	// served one), missing graph 404.
	for _, algo := range []string{"nope", "cc-lp"} {
		var eb errorBody
		if code := post(t, ts.URL+"/v1/graphs/e2e/query", map[string]any{"algo": algo}, &eb); code != http.StatusBadRequest || eb.Error.Code != "bad_request" {
			t.Fatalf("algo %s: status %d code %q, want 400 bad_request", algo, code, eb.Error.Code)
		}
	}
	if code := post(t, ts.URL+"/v1/graphs/ghost/query", map[string]any{"algo": "bfs"}, nil); code != http.StatusNotFound {
		t.Fatalf("missing graph: status %d, want 404", code)
	}

	// Drop, then the graph is gone.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/graphs/e2e", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("drop: status %d", dresp.StatusCode)
	}
	gresp, err := http.Get(ts.URL + "/v1/graphs/e2e")
	if err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusNotFound {
		t.Fatalf("info after drop: status %d, want 404", gresp.StatusCode)
	}
}

// TestQueryDeadline: a 1 ms deadline on an unconvergeable PageRank must
// come back 504 (the context check fires between iterations) and leave
// the graph queryable.
func TestQueryDeadline(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	loadGraph(t, ts.URL, "g", 11)
	code := post(t, ts.URL+"/v1/graphs/g/query", map[string]any{
		"algo": "pagerank", "timeout_ms": 1, "max_iter": 1000000, "tol": 1e-300,
	}, nil)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("deadline query: status %d, want 504", code)
	}
	// The cache survives a canceled query: the next run is clean.
	var qr QueryResponse
	if code := post(t, ts.URL+"/v1/graphs/g/query", map[string]any{"algo": "bfs", "src": 0}, &qr); code != 200 {
		t.Fatalf("query after cancel: status %d", code)
	}
	if qr.Generation != 0 {
		t.Fatalf("cancellation must not bump the generation: %d", qr.Generation)
	}
}

// TestAdmissionGate fills the single worker slot and the queue directly,
// then asserts the next query is shed with 429.
func TestAdmissionGate(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Queue: 1})
	loadGraph(t, ts.URL, "g", 4)

	release, err := s.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	// Occupy the one queue slot with a waiter that will outlive the test
	// assertion below.
	qctx, qcancel := context.WithCancel(context.Background())
	defer qcancel()
	queued := make(chan struct{})
	go func() {
		close(queued)
		if rel, err := s.admit(qctx); err == nil {
			rel()
		}
	}()
	<-queued
	// Wait until the waiter is actually counted in the queue.
	for i := 0; s.queued.Load() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if s.queued.Load() != 1 {
		t.Fatalf("queued = %d, want 1", s.queued.Load())
	}

	if code := post(t, ts.URL+"/v1/graphs/g/query", map[string]any{"algo": "bfs"}, nil); code != http.StatusTooManyRequests {
		t.Fatalf("saturated query: status %d, want 429", code)
	}
	if s.rejected.Load() == 0 {
		t.Fatal("rejected counter did not move")
	}
}

// TestHealthz checks the liveness document.
func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || h.Status != "ok" {
		t.Fatalf("healthz: %d %+v", resp.StatusCode, h)
	}
}

// TestMetrics exercises /metrics after real traffic and validates the
// payload with the shared validator (the same one lagraphd's TestSmoke
// runs against real daemons).
func TestMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	loadGraph(t, ts.URL, "g", 6)
	for i := 0; i < 3; i++ {
		if code := post(t, ts.URL+"/v1/graphs/g/query", map[string]any{"algo": "bfs", "src": i}, nil); code != 200 {
			t.Fatalf("query: status %d", code)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content-type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateMetrics(bytes.NewReader(body)); err != nil {
		t.Fatalf("ValidateMetrics: %v\npayload:\n%s", err, body)
	}
	// Spot-check that real traffic is visible.
	if !strings.Contains(string(body), `lagraphd_http_requests_total{endpoint="query",code="2xx"} 3`) {
		t.Fatalf("query counter not rendered:\n%s", body)
	}
}

// TestValidateMetricsRejects proves the validator actually bites.
func TestValidateMetricsRejects(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"malformed line", "lagraphd_graphs 1\nthis is not a metric\n"},
		{"missing families", "lagraphd_graphs 1\n"},
		{"non-cumulative buckets", strings.Join([]string{
			"lagraphd_graphs 1",
			"lagraphd_grb_ops_total 1",
			"lagraphd_http_requests_total{endpoint=\"query\",code=\"2xx\"} 1",
			"lagraphd_queries_inflight 0",
			"lagraphd_http_request_seconds_bucket{endpoint=\"query\",le=\"0.1\"} 5",
			"lagraphd_http_request_seconds_bucket{endpoint=\"query\",le=\"1\"} 3",
			"lagraphd_http_request_seconds_bucket{endpoint=\"query\",le=\"+Inf\"} 5",
			"lagraphd_http_request_seconds_count{endpoint=\"query\"} 5",
			"",
		}, "\n")},
		{"inf-count mismatch", strings.Join([]string{
			"lagraphd_graphs 1",
			"lagraphd_grb_ops_total 1",
			"lagraphd_http_requests_total{endpoint=\"query\",code=\"2xx\"} 1",
			"lagraphd_queries_inflight 0",
			"lagraphd_http_request_seconds_bucket{endpoint=\"query\",le=\"+Inf\"} 4",
			"lagraphd_http_request_seconds_count{endpoint=\"query\"} 5",
			"",
		}, "\n")},
	}
	for _, tc := range cases {
		if err := ValidateMetrics(strings.NewReader(tc.in)); err == nil {
			t.Errorf("%s: validator accepted bad payload", tc.name)
		}
	}
}

// TestBadLoadRequests covers the request-validation seams of the load
// endpoint.
func TestBadLoadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		body map[string]any
		want int
	}{
		{"no name", map[string]any{"generator": map[string]any{"kind": "er", "scale": 4}}, 400},
		{"no source", map[string]any{"name": "x"}, 400},
		{"two sources", map[string]any{"name": "x", "mmio": "x",
			"generator": map[string]any{"kind": "er", "scale": 4}}, 400},
		{"bad kind", map[string]any{"name": "x", "generator": map[string]any{"kind": "zzz", "scale": 4}}, 400},
		{"bad scale", map[string]any{"name": "x", "generator": map[string]any{"kind": "er", "scale": 99}}, 400},
		{"path disabled", map[string]any{"name": "x", "path": "/etc/passwd"}, 400},
		{"bad mmio", map[string]any{"name": "x", "mmio": "%%MatrixMarket matrix coordinate real general\n2 2 5\n1 1 1\n"}, 400},
		{"nan weight", map[string]any{"name": "x", "mmio": "%%MatrixMarket matrix coordinate real general\n3 3 2\n1 2 nan\n2 3 1\n"}, 400},
	}
	for _, tc := range cases {
		if code := post(t, ts.URL+"/v1/graphs", tc.body, nil); code != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, code, tc.want)
		}
	}
}

// TestInlineMMIOLoad loads a graph from inline Matrix Market text.
func TestInlineMMIOLoad(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	mm := "%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n2 1 1\n3 1 1\n3 2 1\n"
	var p catalog.Properties
	if code := post(t, ts.URL+"/v1/graphs", map[string]any{
		"name": "tri", "undirected": true, "mmio": mm,
	}, &p); code != http.StatusCreated {
		t.Fatalf("mmio load: status %d", code)
	}
	// 3 symmetric entries expand to 6 stored arcs.
	if p.N != 3 || p.NEdges != 6 {
		t.Fatalf("triangle properties: %+v", p)
	}
	var qr QueryResponse
	if code := post(t, ts.URL+"/v1/graphs/tri/query", map[string]any{"algo": "tc"}, &qr); code != 200 {
		t.Fatalf("tc query: status %d", code)
	}
	if fmt.Sprint(qr.Result["triangles"]) != "1" {
		t.Fatalf("triangles = %v, want 1", qr.Result["triangles"])
	}
}

// TestSymmetricIsComputedNotAssumed: an undirected load adopts its matrix
// exactly as given, so "symmetric" must be measured, not read off the
// kind. A general asymmetric and a skew-symmetric body loaded as
// undirected both answer false; a graph whose ingest mirrors every edge
// answers true.
func TestSymmetricIsComputedNotAssumed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct{ name, mm string }{
		{"general", "%%MatrixMarket matrix coordinate real general\n3 3 2\n1 2 1\n2 3 1\n"},
		{"skew", "%%MatrixMarket matrix coordinate real skew-symmetric\n3 3 2\n2 1 1\n3 2 2\n"},
	} {
		name, mm := tc.name, tc.mm
		var p catalog.Properties
		if code := post(t, ts.URL+"/v1/graphs", map[string]any{"name": name, "undirected": true, "mmio": mm}, &p); code != http.StatusCreated {
			t.Fatalf("%s: load status %d", name, code)
		}
		if code := get(t, ts.URL+"/v1/graphs/"+name, &p); code != http.StatusOK || p.Directed || p.Symmetric {
			t.Fatalf("%s: status %d, properties %+v: an undirected kind must not make it symmetric", name, code, p)
		}
	}

	if code := post(t, ts.URL+"/v1/graphs", map[string]any{"name": "mirrored", "undirected": true,
		"mmio": "%%MatrixMarket matrix coordinate real general\n4 4 0\n"}, nil); code != http.StatusCreated {
		t.Fatalf("load: status %d", code)
	}
	if code, _ := postEdges(t, ts.URL, "mirrored", map[string]any{"edges": []map[string]any{
		{"src": 0, "dst": 1, "weight": 2}, {"src": 3, "dst": 1, "weight": -1}, {"src": 2, "dst": 2},
	}}); code != http.StatusOK {
		t.Fatalf("edges: status %d", code)
	}
	var p catalog.Properties
	if code := get(t, ts.URL+"/v1/graphs/mirrored", &p); code != http.StatusOK || !p.Symmetric || p.NEdges != 5 || p.NSelfLoops != 1 {
		t.Fatalf("ingest-mirrored graph: status %d, properties %+v", code, p)
	}
}

// TestSSSPTinyDeltaOverHTTP: the query endpoint forwards any non-zero
// delta. A bucket width far below the edge weights used to walk every
// empty bucket between two distances — ~10¹³ of them here — until the
// deadline answered 504; it now costs one bucket per distinct distance and
// returns the distances of the default width. A width below the spacing of
// float64 at those distances is the caller's mistake: 400, not a spin; so
// is a negative one, which used to run the default width and answer 200.
func TestSSSPTinyDeltaOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if code := post(t, ts.URL+"/v1/graphs", map[string]any{
		"name": "w", "undirected": true,
		"generator": map[string]any{"kind": "rmat", "scale": 7, "edge_factor": 8, "seed": 7, "min_weight": 1, "max_weight": 10},
	}, nil); code != http.StatusCreated {
		t.Fatalf("load: status %d", code)
	}
	var want QueryResponse
	if code := post(t, ts.URL+"/v1/graphs/w/query", map[string]any{"algo": "sssp", "src": 1}, &want); code != http.StatusOK || want.Checksum == "" {
		t.Fatalf("sssp: status %d checksum %q", code, want.Checksum)
	}
	// Widths from far below every edge weight to far above all of them
	// answer the default's distances, one query after another on one entry:
	// a width sets only the buckets, never which edges a query relaxes.
	for _, tc := range []struct {
		delta float64
		code  int
	}{
		{1e-12, http.StatusOK},
		{1e6, http.StatusOK},
		{1e-300, http.StatusBadRequest},
		{-1, http.StatusBadRequest}, // not the default
		{0, http.StatusOK},          // the default
	} {
		var got QueryResponse
		var eb errorBody
		out := any(&got)
		if tc.code != http.StatusOK {
			out = &eb
		}
		code := post(t, ts.URL+"/v1/graphs/w/query", map[string]any{"algo": "sssp", "src": 1, "delta": tc.delta, "timeout_ms": 5000}, out)
		switch {
		case code != tc.code:
			t.Fatalf("delta %g: status %d, want %d", tc.delta, code, tc.code)
		case code == http.StatusOK && got.Checksum != want.Checksum:
			t.Fatalf("delta %g: checksum %q, default delta %q", tc.delta, got.Checksum, want.Checksum)
		case code != http.StatusOK && eb.Error.Code != "bad_request":
			t.Fatalf("delta %g: error code %q, want bad_request", tc.delta, eb.Error.Code)
		}
	}
}
