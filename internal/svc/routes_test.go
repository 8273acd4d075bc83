package svc

import (
	"net/http"
	"strings"
	"testing"

	"lagraph/internal/catalog"
)

// TestRoutesAnswerUnderV1Only walks the route table: every API row is
// answered by its handler under /v1, its unversioned spelling is the mux's
// 404, and the operational endpoints are the other way round.
func TestRoutesAnswerUnderV1Only(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	api, operational := s.routes()

	// muxMiss sends an empty-bodied request and reports whether the mux
	// found no route: its 404 is plain text, a handler's is the JSON
	// envelope.
	muxMiss := func(method, path string) bool {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusNotFound &&
			!strings.HasPrefix(resp.Header.Get("Content-Type"), "application/json")
	}

	for _, rt := range api {
		name := "g-" + rt.endpoint // a graph per row: the drop row deletes its own
		loadGraph(t, ts.URL, name, 3)
		path := strings.ReplaceAll(rt.pattern, "{name}", name)
		if !muxMiss(rt.method, path) {
			t.Errorf("%s %s: the unversioned spelling must be 404", rt.method, path)
		}
		if muxMiss(rt.method, "/v1"+path) {
			t.Errorf("%s /v1%s: no route", rt.method, path)
		}
	}
	for _, rt := range operational {
		if muxMiss(rt.method, rt.pattern) {
			t.Errorf("%s %s: no route", rt.method, rt.pattern)
		}
		if !muxMiss(rt.method, "/v1"+rt.pattern) {
			t.Errorf("%s /v1%s: operational endpoints are unversioned", rt.method, rt.pattern)
		}
	}
}

// TestRouteTableCoversEndpointSet proves the route table and the metrics
// label set cannot drift: every api+operational row uses a registered
// endpoint label, and every label is used.
func TestRouteTableCoversEndpointSet(t *testing.T) {
	s := New(catalog.New(), nil, Config{})
	api, operational := s.routes()
	used := map[string]bool{}
	for _, rt := range append(api, operational...) {
		if _, ok := s.requests[rt.endpoint]; !ok {
			t.Errorf("route %s %s uses unregistered endpoint label %q", rt.method, rt.pattern, rt.endpoint)
		}
		used[rt.endpoint] = true
	}
	// Labels mounted outside the route table: the cluster wire protocol
	// registers as one mux subtree in cluster mode only.
	external := map[string]bool{"cluster": true}
	for _, e := range endpoints {
		if !used[e] && !external[e] {
			t.Errorf("endpoint label %q has no route", e)
		}
	}
}

type listResponse struct {
	Graphs     []string      `json:"graphs"`
	NextCursor string        `json:"next_cursor"`
	Stats      catalog.Stats `json:"stats"`
}

func TestListPagination(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	names := []string{"alpha", "bravo", "charlie", "delta", "echo"}
	for _, n := range names {
		loadGraph(t, ts.URL, n, 3)
	}

	// Unpaginated: all names, sorted, no cursor.
	var all listResponse
	if code := get(t, ts.URL+"/v1/graphs", &all); code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	if len(all.Graphs) != len(names) || all.NextCursor != "" {
		t.Fatalf("unpaginated list: %+v", all)
	}
	for i, n := range names {
		if all.Graphs[i] != n {
			t.Fatalf("list not sorted: %v", all.Graphs)
		}
	}

	// Walk pages of 2 and reassemble the full listing.
	var walked []string
	cursor := ""
	for pages := 0; ; pages++ {
		if pages > len(names) {
			t.Fatal("pagination does not terminate")
		}
		url := ts.URL + "/v1/graphs?limit=2"
		if cursor != "" {
			url += "&cursor=" + cursor
		}
		var page listResponse
		if code := get(t, url, &page); code != http.StatusOK {
			t.Fatalf("page %d: %d", pages, code)
		}
		if len(page.Graphs) > 2 {
			t.Fatalf("page %d exceeds limit: %v", pages, page.Graphs)
		}
		walked = append(walked, page.Graphs...)
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	if len(walked) != len(names) {
		t.Fatalf("walked %v, want %v", walked, names)
	}
	for i, n := range names {
		if walked[i] != n {
			t.Fatalf("walked order %v, want %v", walked, names)
		}
	}

	// A cursor past the last name yields an empty final page.
	var empty listResponse
	if code := get(t, ts.URL+"/v1/graphs?cursor=zulu", &empty); code != http.StatusOK {
		t.Fatalf("past-end cursor: %d", code)
	}
	if len(empty.Graphs) != 0 || empty.NextCursor != "" {
		t.Fatalf("past-end page: %+v", empty)
	}

	// Bad limits get the envelope, not a panic or a silent default.
	for _, raw := range []string{"0", "-3", "x"} {
		var eb errorBody
		if code := get(t, ts.URL+"/v1/graphs?limit="+raw, &eb); code != http.StatusBadRequest {
			t.Errorf("limit=%s: status %d, want 400", raw, code)
		} else if eb.Error.Code != "bad_request" {
			t.Errorf("limit=%s: code %q", raw, eb.Error.Code)
		}
	}
}

// TestErrorEnvelopeShape asserts representative codes across endpoints so
// the envelope contract is pinned beyond the edges handler.
func TestErrorEnvelopeShape(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	loadGraph(t, ts.URL, "g", 4)

	check := func(name string, gotCode int, eb errorBody, wantStatus int, wantCode string, retryable bool) {
		t.Helper()
		if gotCode != wantStatus {
			t.Errorf("%s: status %d want %d", name, gotCode, wantStatus)
		}
		if eb.Error.Code != wantCode || eb.Error.Retryable != retryable || eb.Error.Message == "" {
			t.Errorf("%s: envelope %+v, want code=%q retryable=%v", name, eb.Error, wantCode, retryable)
		}
	}

	var eb errorBody
	code := get(t, ts.URL+"/v1/graphs/missing", &eb)
	check("info missing", code, eb, http.StatusNotFound, "not_found", false)

	eb = errorBody{}
	code = post(t, ts.URL+"/v1/graphs", map[string]any{
		"name": "g", "generator": map[string]any{"kind": "er", "scale": 3},
	}, &eb)
	check("duplicate load", code, eb, http.StatusConflict, "already_exists", false)

	eb = errorBody{}
	code = post(t, ts.URL+"/v1/graphs/g/query", map[string]any{"algo": "nonsense"}, &eb)
	check("bad algo", code, eb, http.StatusBadRequest, "bad_request", false)

	eb = errorBody{}
	code = post(t, ts.URL+"/v1/admin/flush", nil, &eb)
	check("flush w/o persistence", code, eb, http.StatusNotImplemented, "no_persistence", false)
}
