package svc

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"lagraph/internal/catalog"
	"lagraph/internal/gen"
	"lagraph/internal/grb"
	"lagraph/internal/lagraph"
	"lagraph/internal/mmio"
	"lagraph/internal/obs"
)

// GeneratorSpec selects a synthetic graph source.
type GeneratorSpec struct {
	// Kind is rmat | er | grid | powerlaw.
	Kind string `json:"kind"`
	// Scale gives 2^scale vertices (grid: side length).
	Scale int `json:"scale"`
	// EdgeFactor is edges per vertex (default 8).
	EdgeFactor int `json:"edge_factor"`
	// Alpha is the power-law exponent (default 1.8).
	Alpha float64 `json:"alpha"`
	// Seed drives the generator deterministically.
	Seed int64 `json:"seed"`
	// MinWeight/MaxWeight enable weighted edges when both are set.
	MinWeight float64 `json:"min_weight"`
	MaxWeight float64 `json:"max_weight"`
}

// LoadRequest is the POST /v1/graphs body: exactly one of Generator, MMIO
// (inline Matrix Market text) or Path (daemon-side file, if enabled).
type LoadRequest struct {
	Name       string         `json:"name"`
	Undirected bool           `json:"undirected"`
	Replace    bool           `json:"replace"`
	Generator  *GeneratorSpec `json:"generator,omitempty"`
	MMIO       string         `json:"mmio,omitempty"`
	Path       string         `json:"path,omitempty"`
}

// QueryRequest is the POST /v1/graphs/{name}/query body.
type QueryRequest struct {
	// Algo is bfs | parents | sssp | bellmanford | pagerank | cc | tc |
	// ktruss | mis | hits.
	Algo string `json:"algo"`
	// Src is the source vertex for traversals.
	Src int `json:"src"`
	// K is top-k for rankings, k for ktruss.
	K int `json:"k"`
	// Delta, Damping, Tol, MaxIter map onto the algorithm options.
	Delta   float64 `json:"delta"`
	Damping float64 `json:"damping"`
	Tol     float64 `json:"tol"`
	MaxIter int     `json:"max_iter"`
	// Seed drives randomized algorithms (mis) deterministically.
	Seed int64 `json:"seed"`
	// TimeoutMS overrides the daemon's default per-request deadline
	// (clamped to the configured maximum).
	TimeoutMS int64 `json:"timeout_ms"`
	// Trace, when true, attaches the per-iteration trace document to the
	// response.
	Trace bool `json:"trace"`
	// Mode selects the execution strategy for incremental-capable
	// algorithms (bfs, cc, pagerank): "full" (default) recomputes from
	// scratch, "incremental" warm-starts from the entry's cached prior
	// result (falling back to full when no sound prior exists), and
	// "verify" runs both and fails unless they agree. Other algorithms
	// accept any mode but always run full.
	Mode string `json:"mode,omitempty"`
}

// QueryResponse reports a query's outcome. Checksum is an FNV-64a digest
// of the result's tuples: two runs over the same graph generation are
// bitwise identical exactly when their checksums match, which is how the
// stress tests assert determinism across concurrent execution.
type QueryResponse struct {
	Graph      string             `json:"graph"`
	Algo       string             `json:"algo"`
	Generation uint64             `json:"generation"`
	ElapsedMS  float64            `json:"elapsed_ms"`
	Result     map[string]any     `json:"result"`
	Checksum   string             `json:"checksum,omitempty"`
	Trace      *obs.TraceDocument `json:"trace,omitempty"`
	// Cluster annotates the response with this node's placement role for
	// the graph and its replication lag (cluster mode only).
	Cluster *QueryClusterInfo `json:"cluster,omitempty"`
	// Incremental reports how the incremental machinery answered the
	// query: the mode actually used, the warm-start lineage, and the
	// iterations saved. Present whenever a non-full mode was requested,
	// and on full-mode runs of incremental-capable algorithms.
	Incremental *IncrementalInfo `json:"incremental,omitempty"`
}

// ErrorInfo is the uniform error payload every endpoint returns on
// failure: a stable machine-readable code (mapped from the library's
// sentinel taxonomy — the table lives in DESIGN.md), the human-readable
// message, and whether retrying the identical request can succeed.
type ErrorInfo struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	Retryable bool   `json:"retryable"`
}

// errorBody is the JSON error envelope: {"error":{...}}.
type errorBody struct {
	Error ErrorInfo `json:"error"`
}

// writeJSON emits v with the given status and returns the status for the
// instrumentation wrapper.
func writeJSON(w http.ResponseWriter, code int, v any) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
	return code
}

// fail maps err onto an HTTP status and writes the error envelope.
func fail(w http.ResponseWriter, err error) int {
	status, info := classify(err)
	return writeJSON(w, status, errorBody{Error: info})
}

// classify maps the library's error taxonomy onto the HTTP status and
// the envelope's (code, retryable) pair. Retryable means "the identical
// request can succeed later without the client changing anything":
// load-shedding and deadlines qualify; validation failures, conflicts
// and corruption do not.
func classify(err error) (int, ErrorInfo) {
	info := func(code string, retryable bool) ErrorInfo {
		return ErrorInfo{Code: code, Message: err.Error(), Retryable: retryable}
	}
	switch {
	case errors.Is(err, errQueueFull):
		return http.StatusTooManyRequests, info("queue_full", true) // 429: admission gate full
	case errors.Is(err, catalog.ErrNotFound):
		return http.StatusNotFound, info("not_found", false)
	case errors.Is(err, catalog.ErrExists):
		return http.StatusConflict, info("already_exists", false)
	case errors.Is(err, catalog.ErrReadOnly):
		return http.StatusConflict, info("read_only", false) // 409: replica write — the primary is elsewhere
	case errors.Is(err, errNotReady):
		return http.StatusServiceUnavailable, info("not_ready", true) // 503: boot or replica catch-up in progress
	case errors.Is(err, grb.ErrCanceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, info("deadline_exceeded", true) // 504: deadline hit mid-query
	case errors.Is(err, context.Canceled):
		return 499, info("client_closed_request", false) // nginx convention
	case errors.Is(err, errNoPersistence):
		return http.StatusNotImplemented, info("no_persistence", false) // 501: daemon started without -data
	case errors.Is(err, grb.ErrCorrupt):
		return http.StatusInternalServerError, info("corrupt", false) // durable copy failed integrity checks
	case errors.Is(err, errEquivalence):
		// 500, not retryable: a verify-mode query proved the warm-started
		// result diverged from the full recompute — a service invariant
		// violation the client cannot fix by retrying.
		return http.StatusInternalServerError, info("equivalence_violation", false)
	case errors.Is(err, lagraph.ErrBadArgument),
		errors.Is(err, lagraph.ErrNotUndirected),
		errors.Is(err, mmio.ErrFormat),
		errors.Is(err, errBadRequest):
		return http.StatusBadRequest, info("bad_request", false)
	default:
		return http.StatusInternalServerError, info("internal", false)
	}
}

// errBadRequest marks client mistakes that have no library sentinel.
var errBadRequest = errors.New("svc: bad request")

// handleLoad builds a graph from the request source and registers it.
func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) int {
	var req LoadRequest
	body := io.LimitReader(r.Body, maxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		return fail(w, fmt.Errorf("%w: %v", errBadRequest, err))
	}
	if req.Name == "" {
		return fail(w, fmt.Errorf("%w: name required", errBadRequest))
	}
	// Cluster routing happens after the body decode (the name lives in
	// it): 307 sends the client, body and all, to the graph's primary.
	if st, done := s.routeMutation(w, r, req.Name); done {
		return st
	}
	// Graph construction is real work: run it under the admission gate so
	// a burst of uploads cannot starve queries.
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.MaxTimeout)
	defer cancel()
	release, err := s.admit(ctx)
	if err != nil {
		return fail(w, err)
	}
	defer release()

	g, err := s.buildGraph(&req)
	if err != nil {
		return fail(w, err)
	}
	// On a journaling daemon a graph is born with its journal mark at the
	// log head and no baseline: the floor its first snapshot pins excludes
	// every WAL record of an earlier graph under this name (a dropped one,
	// or the one being replaced), and handleEdges journals nothing for it
	// until that snapshot is on disk.
	var born func(*catalog.Entry)
	p := s.cfg.Persister
	journaled := p != nil && p.WAL() != nil
	if journaled {
		born = func(e *catalog.Entry) {
			e.SetJournalSeq(p.WAL().NextLSN() - 1)
			p.Reborn(req.Name)
		}
	}
	e, err := s.cat.Load(req.Name, g, req.Replace, born)
	if err != nil {
		return fail(w, err)
	}
	if journaled && req.Replace {
		// The previous graph's snapshot is still what a crash recovers;
		// an acknowledged replace must not come back as the old graph.
		if _, serr := p.SnapshotOne(req.Name); serr != nil {
			return fail(w, fmt.Errorf("baseline snapshot of replaced graph: %w", serr))
		}
	}
	return writeJSON(w, http.StatusCreated, e.Properties())
}

// buildGraph realizes a LoadRequest source.
func (s *Server) buildGraph(req *LoadRequest) (*lagraph.Graph, error) {
	kind := lagraph.Directed
	if req.Undirected {
		kind = lagraph.Undirected
	}
	sources := 0
	for _, has := range []bool{req.Generator != nil, req.MMIO != "", req.Path != ""} {
		if has {
			sources++
		}
	}
	if sources != 1 {
		return nil, fmt.Errorf("%w: exactly one of generator, mmio, path required", errBadRequest)
	}
	switch {
	case req.MMIO != "":
		a, _, err := mmio.ReadMatrix(strings.NewReader(req.MMIO))
		if err != nil {
			return nil, err
		}
		return lagraph.NewGraph(a, kind)
	case req.Path != "":
		if !s.cfg.AllowPathLoad {
			return nil, fmt.Errorf("%w: path loading disabled (start lagraphd with -allow-path-load)", errBadRequest)
		}
		a, _, err := mmio.ReadMatrixFile(req.Path)
		if err != nil {
			return nil, err
		}
		return lagraph.NewGraph(a, kind)
	}
	spec := req.Generator
	if spec.Scale <= 0 || spec.Scale > 26 {
		return nil, fmt.Errorf("%w: generator scale must be in 1..26", errBadRequest)
	}
	ef := spec.EdgeFactor
	if ef <= 0 {
		ef = 8
	}
	alpha := spec.Alpha
	if alpha == 0 {
		alpha = 1.8
	}
	cfg := gen.Config{
		Seed: spec.Seed, Undirected: req.Undirected, NoSelfLoops: true,
		MinWeight: spec.MinWeight, MaxWeight: spec.MaxWeight,
	}
	e, err := gen.Named(spec.Kind, spec.Scale, ef, alpha, cfg)
	if err != nil {
		return nil, fmt.Errorf("%w: unknown generator kind %q", errBadRequest, spec.Kind)
	}
	return lagraph.NewGraph(e.Matrix(), kind)
}

// handleList reports the registered names (sorted — catalog.Names is
// deterministic) and catalog stats, with keyset pagination: ?limit=N
// caps the page and ?cursor=<name> resumes strictly after that name.
// The cursor is a name, not an offset, so pages stay stable while
// graphs are added or dropped between requests. next_cursor appears
// exactly when the listing was truncated.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) int {
	names := s.cat.Names()
	q := r.URL.Query()
	if cursor := q.Get("cursor"); cursor != "" {
		names = names[sort.SearchStrings(names, cursor+"\x00"):]
	}
	limit := 0
	if raw := q.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n <= 0 {
			return fail(w, fmt.Errorf("%w: limit must be a positive integer, got %q", errBadRequest, raw))
		}
		limit = n
	}
	resp := map[string]any{"stats": s.cat.Stats()}
	if limit > 0 && len(names) > limit {
		names = names[:limit]
		resp["next_cursor"] = names[len(names)-1]
	}
	resp["graphs"] = names
	// Cluster mode annotates the same page with placement: where the
	// ring puts each graph and what this node holds (role + lag). The
	// keyset cursor is unchanged — single-node responses stay identical.
	if n := s.cfg.Cluster; n != nil {
		pls := make([]listPlacement, 0, len(names))
		for _, name := range names {
			pl := listPlacement{Name: name}
			if owners := n.Placement(name); len(owners) > 0 {
				pl.Primary = owners[0].ID
			}
			if e, err := s.cat.Get(name); err == nil {
				pl.Role = e.Role().String()
				pl.LagLSN = e.ReplicaLag()
			}
			pls = append(pls, pl)
		}
		resp["placements"] = pls
	}
	return writeJSON(w, http.StatusOK, resp)
}

// handleInfo reports one graph's cached properties (warming it if cold).
func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) int {
	name := r.PathValue("name")
	e, err := s.cat.Get(name)
	if err != nil {
		if st, done := s.routeRead(w, r, name); done {
			return st
		}
		return fail(w, err)
	}
	return writeJSON(w, http.StatusOK, e.Properties())
}

// handleDrop unregisters a graph and forgets its durable snapshot, so a
// dropped graph does not resurrect on the next boot. The catalog drop
// goes first — once the name is unregistered, no new snapshot of it can
// start — but a DELETE whose durable removal then failed (5xx) stays
// retryable: the retry tolerates the catalog miss and still clears the
// store, answering 404 only when the name is unknown to both.
func (s *Server) handleDrop(w http.ResponseWriter, r *http.Request) int {
	name := r.PathValue("name")
	if st, done := s.routeMutation(w, r, name); done {
		return st
	}
	var dropErr error
	var removed bool
	var removeErr error
	if cl := s.cfg.Cluster; cl != nil {
		// The cluster drop is atomic under the ring mutex: tombstone,
		// catalog drop and durable removal together, so the sync loop
		// cannot re-adopt the name from a replica mid-drop.
		dropErr, removed, removeErr = cl.DropGraph(name)
	} else {
		dropErr = s.cat.Drop(name)
		removed, removeErr = s.dropDurable(name)
	}
	if dropErr != nil && !errors.Is(dropErr, catalog.ErrNotFound) {
		return fail(w, dropErr)
	}
	if removeErr != nil {
		return fail(w, removeErr)
	}
	if dropErr != nil && !removed {
		return fail(w, dropErr)
	}
	w.WriteHeader(http.StatusNoContent)
	return http.StatusNoContent
}

// handleQuery admits, deadlines and dispatches one algorithm run.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) int {
	name := r.PathValue("name")
	e, err := s.cat.Get(name)
	if err != nil {
		// No local copy: in cluster mode a non-owner redirects the query
		// to the primary; owners answer 404.
		if st, done := s.routeRead(w, r, name); done {
			return st
		}
		return fail(w, err)
	}
	var req QueryRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		return fail(w, fmt.Errorf("%w: %v", errBadRequest, err))
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.timeoutFor(req.TimeoutMS))
	defer cancel()
	release, err := s.admit(ctx)
	if err != nil {
		return fail(w, err)
	}
	defer release()

	resp, err := s.runQuery(ctx, e, &req)
	if err != nil {
		return fail(w, err)
	}
	if s.cfg.Cluster != nil {
		resp.Cluster = &QueryClusterInfo{Role: e.Role().String(), LagLSN: e.ReplicaLag()}
	}
	return writeJSON(w, http.StatusOK, resp)
}

// runQuery executes the algorithm under the entry's read lock.
func (s *Server) runQuery(ctx context.Context, e *catalog.Entry, req *QueryRequest) (*QueryResponse, error) {
	resp := &QueryResponse{Graph: e.Name(), Algo: req.Algo}
	mode, err := normalizeMode(req.Mode)
	if err != nil {
		return nil, err
	}
	opts := []lagraph.Option{lagraph.WithContext(ctx)}
	if req.MaxIter > 0 {
		opts = append(opts, lagraph.WithMaxIter(req.MaxIter))
	}
	if req.Tol > 0 {
		opts = append(opts, lagraph.WithTolerance(req.Tol))
	}
	if req.Damping > 0 {
		opts = append(opts, lagraph.WithDamping(req.Damping))
	}
	// 0 is "default"; anything else, negatives included, is lagraph's to
	// accept or reject (JSON carries no NaN or ±Inf).
	if req.Delta != 0 {
		opts = append(opts, lagraph.WithDelta(req.Delta))
	}
	var tr *obs.Trace
	if req.Trace {
		tr = obs.NewTrace(0)
		opts = append(opts, lagraph.WithObserver(tr))
	}
	k := req.K
	if k <= 0 {
		k = 5
	}

	t0 := time.Now()
	err = e.View(func(g *lagraph.Graph) error {
		resp.Generation = e.Generation()
		switch strings.ToLower(req.Algo) {
		case "bfs":
			return s.runIncAlgo(e, g, mode, bfsAlgo(req.Src, opts), resp)
		case "parents":
			parents, err := lagraph.BFSParents(g, req.Src, opts...)
			if err != nil {
				return err
			}
			resp.Result = map[string]any{"tree_size": parents.Nvals()}
			resp.Checksum = checksum(parents)
		case "sssp":
			d, err := lagraph.SSSP(g, req.Src, opts...)
			if err != nil {
				return err
			}
			mx, _ := grb.ReduceVectorToScalar(grb.MaxMonoid[float64](), d)
			resp.Result = map[string]any{"reached": d.Nvals(), "max_distance": mx}
			resp.Checksum = checksum(d)
		case "bellmanford":
			d, err := lagraph.SSSPBellmanFord(g, req.Src, opts...)
			if err != nil {
				return err
			}
			resp.Result = map[string]any{"reached": d.Nvals()}
			resp.Checksum = checksum(d)
		case "pagerank":
			return s.runIncAlgo(e, g, mode, pagerankAlgo(req, opts, k), resp)
		case "cc":
			return s.runIncAlgo(e, g, mode, ccAlgo(opts), resp)
		case "tc":
			c, err := lagraph.TriangleCount(g, lagraph.TCAuto, opts...)
			if err != nil {
				return err
			}
			resp.Result = map[string]any{"triangles": c}
			resp.Checksum = fmt.Sprintf("%016x", uint64(c))
		case "ktruss":
			kk := req.K
			if kk < 3 {
				kk = 3
			}
			t, err := lagraph.KTruss(g, kk, opts...)
			if err != nil {
				return err
			}
			resp.Result = map[string]any{"k": kk, "edges": t.Nvals()}
		case "mis":
			iset, err := lagraph.MIS(g, req.Seed, opts...)
			if err != nil {
				return err
			}
			resp.Result = map[string]any{"size": iset.Nvals()}
		case "hits":
			res, err := lagraph.HITSWith(g, opts...)
			if err != nil {
				return err
			}
			resp.Result = map[string]any{
				"iterations": res.Iterations, "converged": res.Converged,
				"top_authorities": lagraph.TopK(res.Authorities, k),
			}
			resp.Checksum = checksum(res.Authorities)
		default:
			return fmt.Errorf("%w: unknown algo %q", errBadRequest, req.Algo)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Algorithms without an incremental variant answer a non-full mode
	// request honestly: full ran, and here is why.
	if mode != modeFull && resp.Incremental == nil {
		resp.Incremental = &IncrementalInfo{ModeUsed: modeFull, FallbackReason: "algo_not_incremental"}
	}
	resp.ElapsedMS = float64(time.Since(t0)) / float64(time.Millisecond)
	if tr != nil {
		doc := tr.Document()
		resp.Trace = &doc
	}
	return resp, nil
}

// handleHealthz reports liveness.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) int {
	return writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.start).Seconds(),
		"graphs":         len(s.cat.Names()),
		"inflight":       s.inflight.Load(),
		"queued":         s.queued.Load(),
		"workers":        s.cfg.Workers,
	})
}

// handleMetrics renders Prometheus text format: kernel activity from
// obs.Counters, catalog stats, admission-gate gauges, and per-endpoint
// request counts and latency histograms.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) int {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	w.WriteHeader(http.StatusOK)

	cs := s.counters.Snapshot()
	cat := s.cat.Stats()
	p := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }

	p("# HELP lagraphd_uptime_seconds Daemon uptime.\n# TYPE lagraphd_uptime_seconds gauge\n")
	p("lagraphd_uptime_seconds %g\n", time.Since(s.start).Seconds())
	p("# HELP lagraphd_graphs Graphs resident in the catalog.\n# TYPE lagraphd_graphs gauge\n")
	p("lagraphd_graphs %d\n", cat.Graphs)
	p("# TYPE lagraphd_catalog_views_total counter\n")
	p("lagraphd_catalog_views_total %d\n", cat.Views)
	p("# TYPE lagraphd_catalog_updates_total counter\n")
	p("lagraphd_catalog_updates_total %d\n", cat.Updates)
	p("# TYPE lagraphd_catalog_warms_total counter\n")
	p("lagraphd_catalog_warms_total %d\n", cat.Warms)

	p("# HELP lagraphd_queries_inflight Queries holding a worker slot.\n# TYPE lagraphd_queries_inflight gauge\n")
	p("lagraphd_queries_inflight %d\n", s.inflight.Load())
	p("# TYPE lagraphd_queue_depth gauge\n")
	p("lagraphd_queue_depth %d\n", s.queued.Load())
	p("# TYPE lagraphd_queries_rejected_total counter\n")
	p("lagraphd_queries_rejected_total %d\n", s.rejected.Load())

	p("# HELP lagraphd_grb_ops_total Kernel-level GraphBLAS operations observed.\n# TYPE lagraphd_grb_ops_total counter\n")
	p("lagraphd_grb_ops_total %d\n", cs.Ops)
	p("# TYPE lagraphd_grb_iters_total counter\n")
	p("lagraphd_grb_iters_total %d\n", cs.Iters)
	p("# TYPE lagraphd_grb_waits_total counter\n")
	p("lagraphd_grb_waits_total %d\n", cs.Waits)
	p("# TYPE lagraphd_grb_pending_total counter\n")
	p("lagraphd_grb_pending_total %d\n", cs.Pending)
	p("# TYPE lagraphd_grb_zombies_total counter\n")
	p("lagraphd_grb_zombies_total %d\n", cs.Zombies)
	p("# TYPE lagraphd_grb_est_flops_total counter\n")
	p("lagraphd_grb_est_flops_total %d\n", cs.EstFlops)
	p("# TYPE lagraphd_grb_op_seconds_total counter\n")
	p("lagraphd_grb_op_seconds_total %g\n", float64(cs.DurNanos)/1e9)
	p("# TYPE lagraphd_grb_kernel_ops_total counter\n")
	for _, kv := range []struct {
		kernel string
		n      int64
	}{
		{"gustavson", cs.Gustavson}, {"dot", cs.Dot}, {"heap", cs.Heap},
		{"push", cs.Push}, {"pull", cs.Pull},
	} {
		p("lagraphd_grb_kernel_ops_total{kernel=%q} %d\n", kv.kernel, kv.n)
	}
	p("# HELP lagraphd_grb_bitmap_writes_total Kernel results computed as dense lanes and adopted as the output's dense form (write route \"dense\").\n# TYPE lagraphd_grb_bitmap_writes_total counter\n")
	p("lagraphd_grb_bitmap_writes_total %d\n", cs.Bitmap)

	p("# HELP lagraphd_incremental_queries_total Incremental-capable query runs by how they were answered.\n# TYPE lagraphd_incremental_queries_total counter\n")
	p("lagraphd_incremental_queries_total{mode=\"warm\"} %d\n", s.incWarm.Load())
	p("lagraphd_incremental_queries_total{mode=\"full\"} %d\n", s.incFull.Load())
	p("# HELP lagraphd_incremental_fallbacks_total Requested-incremental queries answered by a full recompute.\n# TYPE lagraphd_incremental_fallbacks_total counter\n")
	p("lagraphd_incremental_fallbacks_total %d\n", s.incFallbacks.Load())
	p("# HELP lagraphd_incremental_iterations_saved_total Iterations saved by warm starts versus their full baselines.\n# TYPE lagraphd_incremental_iterations_saved_total counter\n")
	p("lagraphd_incremental_iterations_saved_total %d\n", s.incItersSaved.Load())

	s.writeStoreMetrics(w)
	s.writeClusterMetrics(w)

	p("# HELP lagraphd_http_requests_total Requests by endpoint and status class.\n# TYPE lagraphd_http_requests_total counter\n")
	for _, ep := range endpoints {
		st := s.requests[ep]
		for cls := 1; cls <= 5; cls++ {
			if n := st.byCode[cls].Load(); n > 0 {
				p("lagraphd_http_requests_total{endpoint=%q,code=\"%dxx\"} %d\n", ep, cls, n)
			}
		}
	}
	p("# HELP lagraphd_http_request_seconds Request latency by endpoint.\n# TYPE lagraphd_http_request_seconds histogram\n")
	for _, ep := range endpoints {
		s.requests[ep].lat.write(w, "lagraphd_http_request_seconds", ep)
	}
	return http.StatusOK
}

//
// Result checksums: FNV-64a over the little-endian tuple stream. Bitwise
// determinism across serial and concurrent runs is part of the service
// contract, and the digest makes it observable end to end.
//

// checksum writes each tuple as its index in 8 bytes, then its value in
// its own width: 8 bytes, or 4 for an int32 level. The 4 are the low half
// of the value's 8-byte little-endian encoding.
func checksum[T int32 | int64 | float64](v *grb.Vector[T]) string {
	is, xs := v.ExtractTuples()
	width := 16
	if _, ok := any(*new(T)).(int32); ok {
		width = 12
	}
	h := fnv.New64a()
	var buf [16]byte
	for k := range is {
		binary.LittleEndian.PutUint64(buf[0:8], uint64(is[k]))
		bits := uint64(int64(xs[k]))
		if f, ok := any(xs[k]).(float64); ok {
			bits = math.Float64bits(f)
		}
		binary.LittleEndian.PutUint64(buf[8:16], bits)
		h.Write(buf[:width])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
