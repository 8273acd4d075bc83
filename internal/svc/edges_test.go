package svc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"lagraph/internal/catalog"
	"lagraph/internal/leakcheck"
	"lagraph/internal/obs"
	"lagraph/internal/store"
	"lagraph/internal/wal"
)

// postEdges sends one edge batch to the /v1 spelling and decodes the
// response.
func postEdges(t *testing.T, base, name string, body map[string]any) (int, EdgesResponse) {
	t.Helper()
	var resp EdgesResponse
	code := post(t, base+"/v1/graphs/"+name+"/edges", body, &resp)
	return code, resp
}

// get fetches a URL and decodes the JSON response into out (if non-nil).
func get(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
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

func TestEdgesIngestEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	p0 := loadGraph(t, ts.URL, "g", 6)

	// Two fresh edges (undirected graph: the apply path mirrors them).
	code, resp := postEdges(t, ts.URL, "g", map[string]any{
		"edges": []map[string]any{
			{"src": 0, "dst": 63, "weight": 2.5},
			{"src": 1, "dst": 62},
		},
	})
	if code != http.StatusOK {
		t.Fatalf("edges: status %d", code)
	}
	if resp.Accepted != 2 || resp.Added != 2 || resp.Removed != 0 {
		t.Fatalf("response %+v", resp)
	}
	if resp.Generation != p0.Generation+1 {
		t.Fatalf("generation %d, want %d", resp.Generation, p0.Generation+1)
	}
	if resp.Durable || resp.LSN != 0 {
		t.Fatalf("volatile daemon claims durability: %+v", resp)
	}
	if resp.Pending == 0 {
		t.Fatal("batch must land as pending tuples (deferred assembly)")
	}

	// The next read assembles and sees the new edges.
	var info catalog.Properties
	if code := get(t, ts.URL+"/v1/graphs/g", &info); code != http.StatusOK {
		t.Fatalf("info: %d", code)
	}
	if !info.Warm {
		t.Fatal("info should have warmed the entry")
	}
	// Each fresh undirected edge lands as a mirrored pair of entries; an
	// edge the generator already produced is an upsert. Either way the
	// stored-entry count cannot shrink and the delta is even.
	afterAdd := info.NEdges
	if afterAdd < p0.NEdges || (afterAdd-p0.NEdges)%2 != 0 {
		t.Fatalf("NEdges %d after adds (was %d): mirrored adds must grow by an even count", afterAdd, p0.NEdges)
	}

	// Remove one again: (0,63) definitely exists now, so the remove drops
	// exactly its mirrored pair.
	code, resp = postEdges(t, ts.URL, "g", map[string]any{
		"edges": []map[string]any{{"src": 0, "dst": 63, "remove": true}},
	})
	if code != http.StatusOK || resp.Removed != 1 {
		t.Fatalf("remove: code %d resp %+v", code, resp)
	}
	if code := get(t, ts.URL+"/v1/graphs/g", &info); code != http.StatusOK {
		t.Fatalf("info after remove: %d", code)
	}
	if info.NEdges != afterAdd-2 {
		t.Fatalf("NEdges %d after remove, want %d (mirrored pair dropped)", info.NEdges, afterAdd-2)
	}
}

func TestEdgesValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	loadGraph(t, ts.URL, "g", 4)

	cases := map[string]struct {
		graph string
		body  map[string]any
		want  int
		code  string
	}{
		"unknown graph": {"nope", map[string]any{"edges": []map[string]any{{"src": 0, "dst": 1}}}, http.StatusNotFound, "not_found"},
		"empty batch":   {"g", map[string]any{"edges": []map[string]any{}}, http.StatusBadRequest, "bad_request"},
		"out of range":  {"g", map[string]any{"edges": []map[string]any{{"src": 0, "dst": 99}}}, http.StatusBadRequest, "bad_request"},
		"bad dup":       {"g", map[string]any{"dup": "median", "edges": []map[string]any{{"src": 0, "dst": 1}}}, http.StatusBadRequest, "bad_request"},
	}
	for name, tc := range cases {
		var eb errorBody
		code := post(t, ts.URL+"/v1/graphs/"+tc.graph+"/edges", tc.body, &eb)
		if code != tc.want {
			t.Errorf("%s: status %d want %d", name, code, tc.want)
		}
		if eb.Error.Code != tc.code {
			t.Errorf("%s: envelope code %q want %q", name, eb.Error.Code, tc.code)
		}
		if eb.Error.Message == "" {
			t.Errorf("%s: envelope has no message", name)
		}
		if eb.Error.Retryable {
			t.Errorf("%s: client errors must not be retryable", name)
		}
	}

	// A rejected batch must leave the entry untouched: same generation,
	// same edge count.
	var before, after catalog.Properties
	get(t, ts.URL+"/v1/graphs/g", &before)
	postEdges(t, ts.URL, "g", map[string]any{"edges": []map[string]any{
		{"src": 0, "dst": 1}, {"src": 0, "dst": 99}, // second op poisons the whole batch
	}})
	get(t, ts.URL+"/v1/graphs/g", &after)
	if after.Generation != before.Generation || after.NEdges != before.NEdges {
		t.Fatalf("rejected batch mutated entry: before %+v after %+v", before, after)
	}
}

func TestEdgesDupPolicies(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	loadGraph(t, ts.URL, "g", 4)

	// Establish the edge with a last-wins upsert, then read the settled
	// structural count.
	if code, _ := postEdges(t, ts.URL, "g", map[string]any{
		"edges": []map[string]any{{"src": 2, "dst": 3, "weight": 1.5}},
	}); code != http.StatusOK {
		t.Fatalf("seed upsert: status %d", code)
	}
	var settled catalog.Properties
	get(t, ts.URL+"/v1/graphs/g", &settled)

	// Sum-upserts accumulate onto the stored value: the structural edge
	// count must not move.
	for i := 0; i < 3; i++ {
		code, _ := postEdges(t, ts.URL, "g", map[string]any{
			"dup":   "sum",
			"edges": []map[string]any{{"src": 2, "dst": 3, "weight": 1.5}},
		})
		if code != http.StatusOK {
			t.Fatalf("sum batch %d: status %d", i, code)
		}
	}
	var info catalog.Properties
	if code := get(t, ts.URL+"/v1/graphs/g", &info); code != http.StatusOK {
		t.Fatalf("info: %d", code)
	}
	if info.NEdges != settled.NEdges {
		t.Fatalf("NEdges moved %d -> %d under sum-upserts of an existing edge",
			settled.NEdges, info.NEdges)
	}
	// The accumulated weight is visible to a weighted algorithm: sssp from
	// 2 must be finite and deterministic.
	var q1, q2 QueryResponse
	if code := post(t, ts.URL+"/v1/graphs/g/query", map[string]any{"algo": "sssp", "src": 2}, &q1); code != http.StatusOK {
		t.Fatalf("sssp: %d", code)
	}
	post(t, ts.URL+"/v1/graphs/g/query", map[string]any{"algo": "sssp", "src": 2}, &q2)
	if q1.Checksum == "" || q1.Checksum != q2.Checksum {
		t.Fatalf("sssp over accumulated weights not deterministic: %q vs %q", q1.Checksum, q2.Checksum)
	}
}

// TestSSSPAfterEdgeCrossesDelta: an upsert that moves an edge across the
// default bucket width 2 (1.5 → 3.0), from the bucket its tail settles in
// to a later one, changes the answer as it changes the graph. The next
// query answers what a fresh server answers for the mutated graph: d(1)
// goes from 1.5 (the direct edge) to 2 (via vertex 2).
func TestSSSPAfterEdgeCrossesDelta(t *testing.T) {
	const graph = "%%%%MatrixMarket matrix coordinate real general\n4 4 4\n1 2 %s\n1 3 1\n3 2 1\n2 4 1\n"
	sssp := func(base string) QueryResponse {
		t.Helper()
		var q QueryResponse
		if code := post(t, base+"/v1/graphs/d/query", map[string]any{"algo": "sssp", "src": 0}, &q); code != http.StatusOK || q.Checksum == "" {
			t.Fatalf("sssp: status %d checksum %q", code, q.Checksum)
		}
		return q
	}
	load := func(base, w01 string) {
		t.Helper()
		if code := post(t, base+"/v1/graphs", map[string]any{"name": "d", "mmio": fmt.Sprintf(graph, w01)}, nil); code != http.StatusCreated {
			t.Fatalf("load: status %d", code)
		}
	}
	_, ts := newTestServer(t, Config{})
	load(ts.URL, "1.5")
	before := sssp(ts.URL)
	if code, _ := postEdges(t, ts.URL, "d", map[string]any{
		"dup":   "last", // replace the stored weight
		"edges": []map[string]any{{"src": 0, "dst": 1, "weight": 3.0}},
	}); code != http.StatusOK {
		t.Fatalf("edges: status %d", code)
	}
	after := sssp(ts.URL)

	_, fresh := newTestServer(t, Config{})
	load(fresh.URL, "3.0")
	want := sssp(fresh.URL)
	if after.Checksum != want.Checksum || before.Checksum == want.Checksum {
		t.Fatalf("sssp checksum %s before the upsert, %s after; a fresh server on the mutated graph answers %s (max distance %v after, want %v)",
			before.Checksum, after.Checksum, want.Checksum, after.Result["max_distance"], want.Result["max_distance"])
	}
}

// newDurableServer builds a server with a store and an attached WAL under
// dir, running boot recovery (LoadAll + journal replay) first. Mirrors
// the daemon's wiring in cmd/lagraphd, including fsync-on-commit — the
// Durable:true assertions below must test the real contract.
func newDurableServer(t *testing.T, dir string) (*Server, *httptest.Server, *wal.Log) {
	t.Helper()
	leakcheck.Check(t)
	t.Cleanup(http.DefaultClient.CloseIdleConnections)
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	jl, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jl.Close() })
	cat := catalog.New()
	p := store.NewPersister(st, cat)
	p.AttachWAL(jl)
	if _, err := p.LoadAll(); err != nil {
		t.Fatal(err)
	}
	s := New(cat, &obs.Counters{}, Config{Persister: p})
	s.MarkBootReady()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, jl
}

// TestEdgesDurableCrashRecovery is the service-level replay contract: a
// daemon that dies after acknowledging journaled batches — without ever
// snapshotting them — reboots into a graph whose query results are
// checksum-identical to the pre-crash state.
func TestEdgesDurableCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	_, ts, _ := newDurableServer(t, dir)
	loadGraph(t, ts.URL, "g", 6)

	var last EdgesResponse
	for i := 0; i < 5; i++ {
		code, resp := postEdges(t, ts.URL, "g", map[string]any{
			"edges": []map[string]any{
				{"src": i, "dst": 63 - i, "weight": float64(i + 2)},
			},
		})
		if code != http.StatusOK {
			t.Fatalf("batch %d: status %d", i, code)
		}
		if !resp.Durable || resp.LSN != uint64(i+1) {
			t.Fatalf("batch %d not journaled in sequence: %+v", i, resp)
		}
		last = resp
	}
	_ = last

	var preInfo catalog.Properties
	get(t, ts.URL+"/v1/graphs/g", &preInfo)
	var preQuery QueryResponse
	if code := post(t, ts.URL+"/v1/graphs/g/query", map[string]any{"algo": "cc"}, &preQuery); code != http.StatusOK {
		t.Fatalf("pre-crash query: %d", code)
	}
	// Crash: close the HTTP listener only. No flush, no graceful drain —
	// the WAL is the sole durable copy of the five batches (the edges
	// handler forced a baseline snapshot before the first).
	ts.Close()

	_, ts2, _ := newDurableServer(t, dir)
	var postInfo catalog.Properties
	if code := get(t, ts2.URL+"/v1/graphs/g", &postInfo); code != http.StatusOK {
		t.Fatalf("post-crash info: %d", code)
	}
	if postInfo.NEdges != preInfo.NEdges || postInfo.N != preInfo.N {
		t.Fatalf("recovered graph differs: pre %+v post %+v", preInfo, postInfo)
	}
	var postQuery QueryResponse
	if code := post(t, ts2.URL+"/v1/graphs/g/query", map[string]any{"algo": "cc"}, &postQuery); code != http.StatusOK {
		t.Fatalf("post-crash query: %d", code)
	}
	if postQuery.Checksum != preQuery.Checksum {
		t.Fatalf("post-crash checksum %s != pre-crash %s (replay not identical)",
			postQuery.Checksum, preQuery.Checksum)
	}
}

// graphImage serializes a served graph for bitwise comparison.
func graphImage(t *testing.T, s *Server, name string) []byte {
	t.Helper()
	e, err := s.cat.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := e.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBatchesReplayOntoTheGraphThatAcknowledgedThem covers the two ways a
// name changes graphs under a journaling daemon: snapshot → batch → new
// graph → batch → crash without a flush. Either way handleLoad gives the
// new graph its journal mark at the log head and no baseline, so recovery
// keeps the earlier graph's WAL records below the new snapshot's floor
// and replays the later batch onto the graph it was acknowledged against.
func TestBatchesReplayOntoTheGraphThatAcknowledgedThem(t *testing.T) {
	edge := func(src, dst int) map[string]any {
		return map[string]any{"dup": "sum", "edges": []map[string]any{{"src": src, "dst": dst, "weight": 2.5}}}
	}
	for _, c := range []struct {
		name    string
		rebirth func(t *testing.T, base string)
		after   map[string]any
	}{
		// Replace is invisible to the journal: without a new floor and
		// baseline, recovery is the pre-replace snapshot plus both batches
		// — and vertex 60 does not exist in the 32-vertex graph, so the
		// boot fails outright.
		{"replace", func(t *testing.T, base string) {
			var p catalog.Properties
			if code := post(t, base+"/v1/graphs", map[string]any{
				"name": "g", "undirected": true, "replace": true,
				"generator": map[string]any{"kind": "powerlaw", "scale": 6, "edge_factor": 8, "seed": 9},
			}, &p); code != http.StatusCreated || p.N != 64 {
				t.Fatalf("replace: status %d, %+v", code, p)
			}
		}, edge(3, 60)},
		// Same dimensions, so the dropped graph's record would apply
		// cleanly to the new one: the PR 8 regression, at its birth site.
		{"drop and re-create", func(t *testing.T, base string) {
			req, err := http.NewRequest(http.MethodDelete, base+"/v1/graphs/g", nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNoContent {
				t.Fatalf("drop: status %d", resp.StatusCode)
			}
			loadGraph(t, base, "g", 5)
		}, edge(3, 30)},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			s, ts, _ := newDurableServer(t, dir)
			loadGraph(t, ts.URL, "g", 5)
			if code := post(t, ts.URL+"/v1/graphs/g/snapshot", nil, nil); code != http.StatusOK {
				t.Fatalf("snapshot: status %d", code)
			}
			batch := func(body map[string]any) {
				t.Helper()
				if code, resp := postEdges(t, ts.URL, "g", body); code != http.StatusOK || !resp.Durable {
					t.Fatalf("batch %v: status %d, %+v", body, code, resp)
				}
			}
			batch(edge(0, 31))
			c.rebirth(t, ts.URL)
			batch(c.after)
			want := graphImage(t, s, "g")
			ts.Close() // crash: no flush, no drain

			s2, _, _ := newDurableServer(t, dir)
			if rs := s2.Persister().ReplayStats(); rs.Applied != 1 || rs.SkippedFloor != 1 {
				t.Fatalf("replay = %+v, want the earlier graph's batch below the floor and the later one applied", rs)
			}
			if !bytes.Equal(graphImage(t, s2, "g"), want) {
				t.Fatal("recovered graph is not bitwise the pre-crash graph")
			}
		})
	}
}

// TestEdgesNoSyncNotDurable: with -wal-sync=false the batch is journaled
// (LSN assigned) but never fsynced, so the response must not claim the
// "fsynced before this response was written" contract.
func TestEdgesNoSyncNotDurable(t *testing.T) {
	dir := t.TempDir()
	leakcheck.Check(t)
	t.Cleanup(http.DefaultClient.CloseIdleConnections)
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	jl, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jl.Close() })
	cat := catalog.New()
	p := store.NewPersister(st, cat)
	p.AttachWAL(jl)
	if _, err := p.LoadAll(); err != nil {
		t.Fatal(err)
	}
	s := New(cat, &obs.Counters{}, Config{Persister: p})
	s.MarkBootReady()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	loadGraph(t, ts.URL, "g", 4)
	code, resp := postEdges(t, ts.URL, "g", map[string]any{
		"edges": []map[string]any{{"src": 0, "dst": 1}},
	})
	if code != http.StatusOK {
		t.Fatalf("edges: status %d", code)
	}
	if resp.LSN == 0 {
		t.Fatalf("batch not journaled: %+v", resp)
	}
	if resp.Durable {
		t.Fatalf("unsynced append claims durability: %+v", resp)
	}
}

func TestEdgesWALMetricsFamilies(t *testing.T) {
	dir := t.TempDir()
	_, ts, _ := newDurableServer(t, dir)
	loadGraph(t, ts.URL, "g", 4)
	if code, _ := postEdges(t, ts.URL, "g", map[string]any{
		"edges": []map[string]any{{"src": 0, "dst": 1}},
	}); code != http.StatusOK {
		t.Fatalf("edges: %d", code)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	body := string(data)
	for _, family := range []string{
		"lagraphd_wal_appends_total", "lagraphd_wal_append_bytes_total",
		"lagraphd_wal_fsyncs_total", "lagraphd_wal_segments",
		"lagraphd_wal_next_lsn", "lagraphd_wal_replayed_total",
		"lagraphd_wal_torn_bytes",
	} {
		if !strings.Contains(body, family) {
			t.Errorf("missing %s in /metrics", family)
		}
	}
	if err := ValidateMetrics(strings.NewReader(body)); err != nil {
		t.Fatalf("metrics failed validation with WAL families: %v", err)
	}
}
