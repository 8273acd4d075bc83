// Package svc is the HTTP service layer of lagraphd: JSON endpoints to
// load or generate named graphs into a catalog and run GraphBLAS
// algorithm queries against them, with a bounded worker-pool admission
// gate, per-request deadlines plumbed through lagraph.WithContext, and
// /healthz + /metrics endpoints rendering obs.Counters plus per-endpoint
// latency histograms in Prometheus text format.
//
// # Admission control
//
// Query execution is gated by a semaphore of cfg.Workers slots backed by
// a bounded wait queue of cfg.Queue requests. A query that cannot get a
// slot immediately joins the queue; when the queue is full the request is
// rejected with 429 (the load-shedding contract: a saturated daemon stays
// responsive instead of accumulating unbounded goroutines). A queued
// request that hits its deadline before a slot frees leaves the queue and
// reports 504 without ever starting work.
package svc

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"lagraph/internal/catalog"
	"lagraph/internal/cluster"
	"lagraph/internal/obs"
	"lagraph/internal/store"
)

// Config tunes the daemon.
type Config struct {
	// Workers caps concurrently executing queries; 0 selects GOMAXPROCS.
	Workers int
	// Queue caps queries waiting for a worker slot; 0 selects 4×Workers.
	// Beyond Workers+Queue concurrent queries, requests get 429.
	Queue int
	// DefaultTimeout bounds queries that do not carry their own
	// timeout_ms; 0 selects 30s.
	DefaultTimeout time.Duration
	// MaxTimeout clamps client-requested timeouts; 0 selects 5m.
	MaxTimeout time.Duration
	// AllowPathLoad permits the load endpoint to read Matrix Market
	// files from the daemon's filesystem. Off by default: inline and
	// generator sources only.
	AllowPathLoad bool
	// Persister, when non-nil, enables the durability endpoints
	// (POST /v1/graphs/{name}/snapshot, POST /v1/admin/flush), mirrors graph
	// drops into the store, and adds lagraphd_store_* metric families.
	// It also gates readiness: /readyz answers 503 and mutations
	// not_ready until MarkBootReady reports boot recovery done. Nil runs
	// the daemon volatile and ready at once.
	Persister *store.Persister
	// Cluster, when non-nil, runs the daemon as one member of a
	// multi-node deployment: mutations are routed to each graph's ring
	// primary (307 + Location), replica-held graphs serve read-only
	// queries locally, reads of graphs this node does not hold are
	// redirected to the primary too, the cluster wire protocol mounts
	// under /v1/cluster/, and the lagraphd_cluster_* metric families
	// appear.
	Cluster *cluster.Node
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Queue <= 0 {
		c.Queue = 4 * c.Workers
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	return c
}

// maxBodyBytes caps a request body: an inline mmio upload or an edge
// batch.
const maxBodyBytes = 256 << 20

// errQueueFull is the admission gate's load-shedding signal (→ 429).
var errQueueFull = errors.New("svc: worker queue full")

// Server wires the catalog, the admission gate and the metric sinks
// behind an http.Handler.
type Server struct {
	cfg      Config
	cat      *catalog.Catalog
	counters *obs.Counters
	start    time.Time

	sem      chan struct{} // worker slots
	queued   atomic.Int64  // requests waiting for a slot
	inflight atomic.Int64  // requests holding a slot
	rejected atomic.Int64  // 429s issued

	// bootReady reports that boot recovery completed (/readyz gates on
	// it; starts true when there is no Persister to recover).
	bootReady atomic.Bool

	// Incremental-query counters (see incremental.go): runs answered
	// warm vs full, fallbacks from a requested incremental mode, and the
	// cumulative iterations saved by warm starts.
	incWarm       atomic.Int64
	incFull       atomic.Int64
	incFallbacks  atomic.Int64
	incItersSaved atomic.Int64

	// Per-endpoint request counters (endpoint → status class) and
	// latency histograms. The endpoint set is fixed at construction, so
	// the maps are read-only after New and need no lock.
	requests map[string]*endpointStats
}

// endpointStats aggregates one endpoint's activity.
type endpointStats struct {
	byCode [6]atomic.Int64 // index = status/100 (1xx..5xx; 0 unused)
	lat    histogram
}

// endpoints is the fixed label set for per-endpoint metrics: a label names
// the operation, not its /v1 path.
var endpoints = []string{"load", "list", "info", "drop", "query", "edges", "snapshot", "flush", "healthz", "readyz", "metrics", "cluster"}

// New creates a server around cat. counters may be nil, in which case a
// fresh obs.Counters is created; the caller is responsible for installing
// it process-wide (obs.Set) if kernel-level op records should flow into
// /metrics — the daemon does, tests may prefer isolation.
func New(cat *catalog.Catalog, counters *obs.Counters, cfg Config) *Server {
	cfg = cfg.withDefaults()
	if counters == nil {
		counters = &obs.Counters{}
	}
	s := &Server{
		cfg:      cfg,
		cat:      cat,
		counters: counters,
		start:    time.Now(),
		sem:      make(chan struct{}, cfg.Workers),
		requests: map[string]*endpointStats{},
	}
	for _, e := range endpoints {
		s.requests[e] = &endpointStats{}
	}
	if cfg.Persister == nil {
		s.bootReady.Store(true)
	}
	return s
}

// Catalog exposes the registry (the daemon preloads graphs through it).
func (s *Server) Catalog() *catalog.Catalog { return s.cat }

// route is one row of the API surface: an operation (the metrics label),
// its method, its path pattern relative to the version prefix, and the
// handler. Having the whole surface in one table is the point of the /v1
// redesign — a new endpoint is one row.
type route struct {
	method   string
	pattern  string // e.g. "/graphs/{name}/query"
	endpoint string // metrics label, from the endpoints set
	handler  func(http.ResponseWriter, *http.Request) int
}

// routes returns the full API surface. /healthz and /metrics are
// operational endpoints scraped by infrastructure; they stay unversioned.
func (s *Server) routes() (api, operational []route) {
	api = []route{
		{"POST", "/graphs", "load", s.handleLoad},
		{"GET", "/graphs", "list", s.handleList},
		{"GET", "/graphs/{name}", "info", s.handleInfo},
		{"DELETE", "/graphs/{name}", "drop", s.handleDrop},
		{"POST", "/graphs/{name}/query", "query", s.handleQuery},
		{"POST", "/graphs/{name}/edges", "edges", s.handleEdges},
		{"POST", "/graphs/{name}/snapshot", "snapshot", s.handleSnapshot},
		{"POST", "/admin/flush", "flush", s.handleFlush},
	}
	operational = []route{
		{"GET", "/healthz", "healthz", s.handleHealthz},
		{"GET", "/readyz", "readyz", s.handleReadyz},
		{"GET", "/metrics", "metrics", s.handleMetrics},
	}
	return api, operational
}

// Handler builds the mux: every API route is registered under /v1, the
// only spelling; operational endpoints at their bare path.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	api, operational := s.routes()
	for _, rt := range api {
		mux.HandleFunc(rt.method+" /v1"+rt.pattern, s.instrument(rt.endpoint, rt.handler))
	}
	for _, rt := range operational {
		mux.HandleFunc(rt.method+" "+rt.pattern, s.instrument(rt.endpoint, rt.handler))
	}
	// The cluster wire protocol (topology, status, WAL stream, snapshot
	// fetch) mounts alongside the API; its handlers live in the cluster
	// package, instrumented here under one "cluster" endpoint label.
	if n := s.cfg.Cluster; n != nil {
		ch := n.Handler()
		mux.HandleFunc("/v1/cluster/", s.instrument("cluster", func(w http.ResponseWriter, r *http.Request) int {
			rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
			ch.ServeHTTP(rec, r)
			return rec.code
		}))
	}
	return mux
}

// instrument wraps a handler with latency and status-class accounting.
func (s *Server) instrument(endpoint string, h func(http.ResponseWriter, *http.Request) int) http.HandlerFunc {
	st := s.requests[endpoint]
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		code := h(w, r)
		st.lat.observe(int64(time.Since(t0)))
		if cls := code / 100; cls >= 1 && cls <= 5 {
			st.byCode[cls].Add(1)
		}
	}
}

// admit acquires a worker slot, queueing up to cfg.Queue waiters. The
// returned release function must be called exactly once.
func (s *Server) admit(ctx context.Context) (release func(), err error) {
	acquire := func() func() {
		s.inflight.Add(1)
		return func() {
			s.inflight.Add(-1)
			<-s.sem
		}
	}
	select {
	case s.sem <- struct{}{}:
		return acquire(), nil
	default:
	}
	if s.queued.Add(1) > int64(s.cfg.Queue) {
		s.queued.Add(-1)
		s.rejected.Add(1)
		return nil, errQueueFull
	}
	defer s.queued.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return acquire(), nil
	case <-ctx.Done():
		return nil, fmt.Errorf("svc: queued request abandoned: %w", context.Cause(ctx))
	}
}

// timeoutFor resolves a request's effective deadline.
func (s *Server) timeoutFor(requestedMS int64) time.Duration {
	d := s.cfg.DefaultTimeout
	if requestedMS > 0 {
		d = time.Duration(requestedMS) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}
