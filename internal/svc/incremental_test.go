package svc

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

// queryMode posts one query and fails the test on a non-200 unless
// wantCode says otherwise.
func queryMode(t *testing.T, base, graph string, body map[string]any, wantCode int) QueryResponse {
	t.Helper()
	var q QueryResponse
	if code := post(t, base+"/v1/graphs/"+graph+"/query", body, &q); code != wantCode {
		t.Fatalf("query %v: status %d, want %d", body, code, wantCode)
	}
	return q
}

// ingestEdges posts one edge batch.
func ingestEdges(t *testing.T, base, graph string, edges []map[string]any) EdgesResponse {
	t.Helper()
	var er EdgesResponse
	if code := post(t, base+"/v1/graphs/"+graph+"/edges", map[string]any{"edges": edges}, &er); code != 200 {
		t.Fatalf("edges: status %d", code)
	}
	return er
}

// TestIncrementalModes drives the full mode protocol over HTTP: prime →
// ingest → warm start, with checksum identity against full recompute,
// the verify mode, and the fallback matrix.
func TestIncrementalModes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	loadGraph(t, ts.URL, "inc", 8)

	// First incremental query has no prior: honest fallback that primes
	// the cache.
	q := queryMode(t, ts.URL, "inc", map[string]any{"algo": "cc", "mode": "incremental"}, 200)
	if q.Incremental == nil || q.Incremental.ModeUsed != "full" || q.Incremental.FallbackReason != "no_prior_result" {
		t.Fatalf("cold incremental query: %+v", q.Incremental)
	}
	primeGen := q.Generation
	// Prime bfs and pagerank too (plain full mode also stores).
	queryMode(t, ts.URL, "inc", map[string]any{"algo": "bfs", "src": 0}, 200)
	queryMode(t, ts.URL, "inc", map[string]any{"algo": "pagerank"}, 200)

	ingestEdges(t, ts.URL, "inc", []map[string]any{
		{"src": 3, "dst": 200}, {"src": 100, "dst": 50}, {"src": 0, "dst": 255},
	})

	// Exact algorithms: the warm checksum must equal the full one on the
	// same generation.
	for _, algo := range []string{"cc", "bfs"} {
		inc := queryMode(t, ts.URL, "inc", map[string]any{"algo": algo, "mode": "incremental", "src": 0}, 200)
		if inc.Incremental == nil || inc.Incremental.ModeUsed != "incremental" {
			t.Fatalf("%s: wanted a warm start, got %+v", algo, inc.Incremental)
		}
		if inc.Incremental.WarmStartGeneration != primeGen {
			t.Fatalf("%s: warm_start_generation %d, want %d", algo, inc.Incremental.WarmStartGeneration, primeGen)
		}
		if !inc.Incremental.Exact {
			t.Fatalf("%s: warm start should be exact", algo)
		}
		full := queryMode(t, ts.URL, "inc", map[string]any{"algo": algo, "mode": "full", "src": 0}, 200)
		if inc.Checksum != full.Checksum || inc.Generation != full.Generation {
			t.Fatalf("%s: incremental checksum %s@%d != full %s@%d",
				algo, inc.Checksum, inc.Generation, full.Checksum, full.Generation)
		}
	}

	// PageRank equivalence is tolerance-level: assert it server-side via
	// verify mode, which fails the request on divergence and returns the
	// full-mode (deterministic) checksum.
	v := queryMode(t, ts.URL, "inc", map[string]any{"algo": "pagerank", "mode": "verify"}, 200)
	if v.Incremental == nil || v.Incremental.Verify == nil || !v.Incremental.Verify.Equivalent {
		t.Fatalf("pagerank verify: %+v", v.Incremental)
	}
	if v.Incremental.Verify.Bound <= 0 || v.Incremental.Verify.L1Diff > v.Incremental.Verify.Bound {
		t.Fatalf("pagerank verify bound: %+v", v.Incremental.Verify)
	}
	full := queryMode(t, ts.URL, "inc", map[string]any{"algo": "pagerank", "mode": "full"}, 200)
	if v.Checksum != full.Checksum {
		t.Fatalf("verify checksum %s != full checksum %s", v.Checksum, full.Checksum)
	}

	// Verify mode works for the exact algorithms too.
	cv := queryMode(t, ts.URL, "inc", map[string]any{"algo": "cc", "mode": "verify"}, 200)
	if cv.Incremental == nil || cv.Incremental.Verify == nil || !cv.Incremental.Verify.Equivalent {
		t.Fatalf("cc verify: %+v", cv.Incremental)
	}

	// Algorithms without an incremental variant answer honestly.
	s := queryMode(t, ts.URL, "inc", map[string]any{"algo": "sssp", "src": 0, "mode": "incremental"}, 200)
	if s.Incremental == nil || s.Incremental.ModeUsed != "full" || s.Incremental.FallbackReason != "algo_not_incremental" {
		t.Fatalf("sssp incremental: %+v", s.Incremental)
	}

	// Unknown modes are client errors.
	queryMode(t, ts.URL, "inc", map[string]any{"algo": "cc", "mode": "warp"}, 400)

	// Full-mode responses carry no fallback noise.
	f := queryMode(t, ts.URL, "inc", map[string]any{"algo": "cc"}, 200)
	if f.Incremental == nil || f.Incremental.ModeUsed != "full" || f.Incremental.FallbackReason != "" {
		t.Fatalf("plain full query: %+v", f.Incremental)
	}
}

// TestIncrementalFallbackMatrix exercises the staleness rules end to
// end: removals break the exact warm starts but not PageRank, and a new
// source point rejects a BFS prior.
func TestIncrementalFallbackMatrix(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	loadGraph(t, ts.URL, "fb", 8)

	for _, algo := range []string{"cc", "bfs", "pagerank"} {
		queryMode(t, ts.URL, "fb", map[string]any{"algo": algo, "src": 0}, 200)
	}
	// A batch containing a removal: CC and BFS must fall back
	// (components can split, levels can rise), PageRank still warm-starts.
	ingestEdges(t, ts.URL, "fb", []map[string]any{
		{"src": 1, "dst": 2}, {"src": 3, "dst": 4, "remove": true},
	})
	for _, algo := range []string{"cc", "bfs"} {
		q := queryMode(t, ts.URL, "fb", map[string]any{"algo": algo, "src": 0, "mode": "incremental"}, 200)
		if q.Incremental.ModeUsed != "full" || q.Incremental.FallbackReason != "delta_has_removals" {
			t.Fatalf("%s after removal: %+v", algo, q.Incremental)
		}
	}
	pr := queryMode(t, ts.URL, "fb", map[string]any{"algo": "pagerank", "mode": "incremental"}, 200)
	if pr.Incremental.ModeUsed != "incremental" {
		t.Fatalf("pagerank after removal should still warm-start: %+v", pr.Incremental)
	}

	// The fallback primed fresh results; a BFS prior rooted at src=0
	// cannot answer src=5 — separate cache keys mean a clean miss, not a
	// wrong answer.
	ingestEdges(t, ts.URL, "fb", []map[string]any{{"src": 9, "dst": 10}})
	b := queryMode(t, ts.URL, "fb", map[string]any{"algo": "bfs", "src": 5, "mode": "incremental"}, 200)
	if b.Incremental.ModeUsed != "full" || b.Incremental.FallbackReason != "no_prior_result" {
		t.Fatalf("bfs new source: %+v", b.Incremental)
	}
	// src=0 was re-primed by the fallback above, so it warm-starts now.
	b0 := queryMode(t, ts.URL, "fb", map[string]any{"algo": "bfs", "src": 0, "mode": "incremental"}, 200)
	if b0.Incremental.ModeUsed != "incremental" {
		t.Fatalf("bfs src=0 after re-prime: %+v", b0.Incremental)
	}
}

// TestIncrementalMetrics asserts the /metrics families move.
func TestIncrementalMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	loadGraph(t, ts.URL, "m", 6)
	queryMode(t, ts.URL, "m", map[string]any{"algo": "cc", "mode": "incremental"}, 200) // fallback
	ingestEdges(t, ts.URL, "m", []map[string]any{{"src": 1, "dst": 2}})
	queryMode(t, ts.URL, "m", map[string]any{"algo": "cc", "mode": "incremental"}, 200) // warm

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`lagraphd_incremental_queries_total{mode="warm"} 1`,
		`lagraphd_incremental_queries_total{mode="full"} 1`,
		"lagraphd_incremental_fallbacks_total 1",
		"lagraphd_incremental_iterations_saved_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
