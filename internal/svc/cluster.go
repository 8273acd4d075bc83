package svc

import (
	"errors"
	"fmt"
	"io"
	"net/http"

	"lagraph/internal/catalog"
	"lagraph/internal/cluster"
)

// errNotReady marks requests the node cannot serve yet but will be able
// to: boot recovery or replica catch-up in progress (→ 503, retryable).
var errNotReady = errors.New("svc: not ready")

// QueryClusterInfo annotates a query response with this node's placement
// role for the graph and, on replicas, the replication-lag LSN at the
// time the query ran.
type QueryClusterInfo struct {
	Role   string `json:"role"`
	LagLSN uint64 `json:"lag_lsn"`
}

// listPlacement is one graph's row in the cluster-mode listing: where
// the ring places it and what this node holds.
type listPlacement struct {
	Name    string `json:"name"`
	Primary string `json:"primary"`
	// Role is this node's local copy's role ("primary" | "replica";
	// empty when the graph is known here only by name via the ring).
	Role string `json:"role,omitempty"`
	// LagLSN is the replication lag of a local replica copy (0 = caught
	// up or not a replica).
	LagLSN uint64 `json:"lag_lsn"`
}

// MarkBootReady reports that boot-time recovery (snapshot loads + WAL
// replay) has completed; a server built with a Persister answers /readyz
// 503 and mutations not_ready until then.
func (s *Server) MarkBootReady() { s.bootReady.Store(true) }

// handleReadyz is the readiness probe, distinct from /healthz liveness:
// 503 until boot snapshot+WAL replay completed — and, in cluster mode,
// until the initial replica catch-up completed — so a load balancer does
// not route queries to a node still rebuilding its graphs.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) int {
	boot := s.bootReady.Load()
	clusterOK := s.cfg.Cluster == nil || s.cfg.Cluster.Ready()
	doc := map[string]any{
		"ready":          boot && clusterOK,
		"boot_recovered": boot,
		"cluster_synced": clusterOK,
	}
	if !boot || !clusterOK {
		return writeJSON(w, http.StatusServiceUnavailable, doc)
	}
	return writeJSON(w, http.StatusOK, doc)
}

// routeMutation is the cluster write-path gate, called with the graph
// name BEFORE any catalog lookup (the graph may not exist locally on a
// non-owner). Returns (status, true) when the request was answered here
// — a 307 to the primary, or 503 while ownership is still in flight —
// and (0, false) when the local handler should proceed.
func (s *Server) routeMutation(w http.ResponseWriter, r *http.Request, name string) (int, bool) {
	// The daemon starts its listener before boot recovery so /readyz can
	// answer; until snapshot+WAL replay completes, mutations must not
	// interleave with the replay's catalog/journal writes.
	if !s.bootReady.Load() {
		return fail(w, fmt.Errorf("%w: boot recovery in progress", errNotReady)), true
	}
	n := s.cfg.Cluster
	if n == nil || name == "" {
		return 0, false
	}
	role, primary := n.RoleOf(name)
	if role != catalog.RolePrimary {
		return s.redirectTo(w, r, primary), true
	}
	// Ring-primary, but the write path may not be up yet: a local copy
	// still marked replica means adoption (catch-up + rebase) is in
	// flight; a missing copy with a pending sync means the baseline is
	// still being fetched. Both clear within a poll interval or two.
	if e, err := s.cat.Get(name); err == nil {
		if e.Role() == catalog.RoleReplica {
			return fail(w, fmt.Errorf("%w: %q is being adopted by this node", errNotReady, name)), true
		}
	} else if n.SyncPending(name) {
		return fail(w, fmt.Errorf("%w: %q sync in progress", errNotReady, name)), true
	}
	return 0, false
}

// routeRead handles a read (query/info) whose graph has no local copy.
// Owners answer 503 while their sync is pending and 404 otherwise; a
// non-owner answers 307 to the primary, as writes do.
func (s *Server) routeRead(w http.ResponseWriter, r *http.Request, name string) (int, bool) {
	n := s.cfg.Cluster
	if n == nil {
		return 0, false
	}
	if n.SyncPending(name) {
		return fail(w, fmt.Errorf("%w: %q replication in progress", errNotReady, name)), true
	}
	role, primary := n.RoleOf(name)
	if role == catalog.RolePrimary {
		// This node IS the authority for the name; a miss is a real 404.
		return 0, false
	}
	return s.redirectTo(w, r, primary), true
}

// redirectTo answers 307 with the primary's absolute URL for the same
// request-URI; the client re-issues the method and body there.
func (s *Server) redirectTo(w http.ResponseWriter, r *http.Request, target cluster.NodeInfo) int {
	s.cfg.Cluster.CountRedirect()
	w.Header().Set("Location", target.URL+r.URL.RequestURI())
	w.WriteHeader(http.StatusTemporaryRedirect)
	return http.StatusTemporaryRedirect
}

// statusRecorder captures the status code a wrapped http.Handler wrote,
// so foreign handlers (the cluster wire protocol) feed the same
// per-endpoint metrics as native routes.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.code = code
	sr.ResponseWriter.WriteHeader(code)
}

// writeClusterMetrics renders the lagraphd_cluster_* families. No-op on
// a single-node daemon, keeping the family set stable per configuration.
func (s *Server) writeClusterMetrics(w io.Writer) {
	n := s.cfg.Cluster
	if n == nil {
		return
	}
	st := n.Stats()
	p := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }
	b2i := func(b bool) int {
		if b {
			return 1
		}
		return 0
	}
	p("# HELP lagraphd_cluster_epoch Current topology epoch.\n# TYPE lagraphd_cluster_epoch gauge\n")
	p("lagraphd_cluster_epoch %d\n", st.Epoch)
	p("# TYPE lagraphd_cluster_nodes gauge\n")
	p("lagraphd_cluster_nodes %d\n", st.Nodes)
	p("# HELP lagraphd_cluster_ready Whether initial replica catch-up completed (readyz gates on it).\n# TYPE lagraphd_cluster_ready gauge\n")
	p("lagraphd_cluster_ready %d\n", b2i(st.Ready))
	p("# TYPE lagraphd_cluster_pending_syncs gauge\n")
	p("lagraphd_cluster_pending_syncs %d\n", st.PendingSyncs)
	p("# HELP lagraphd_cluster_replication_lag Worst replication-lag LSN across local replica graphs (0 = caught up).\n# TYPE lagraphd_cluster_replication_lag gauge\n")
	p("lagraphd_cluster_replication_lag %d\n", st.MaxLagLSN)
	p("# TYPE lagraphd_cluster_replication_lag_seconds gauge\n")
	p("lagraphd_cluster_replication_lag_seconds %g\n", st.LagSeconds)
	p("# TYPE lagraphd_cluster_shipped_records_total counter\n")
	p("lagraphd_cluster_shipped_records_total %d\n", st.ShippedRecords)
	p("# TYPE lagraphd_cluster_shipped_snapshots_total counter\n")
	p("lagraphd_cluster_shipped_snapshots_total %d\n", st.ShippedSnapshots)
	p("# TYPE lagraphd_cluster_fetched_records_total counter\n")
	p("lagraphd_cluster_fetched_records_total %d\n", st.FetchedRecords)
	p("# TYPE lagraphd_cluster_fetched_snapshots_total counter\n")
	p("lagraphd_cluster_fetched_snapshots_total %d\n", st.FetchedSnapshots)
	p("# TYPE lagraphd_cluster_redirects_total counter\n")
	p("lagraphd_cluster_redirects_total %d\n", st.Redirects)
	p("# TYPE lagraphd_cluster_handoffs_total counter\n")
	p("lagraphd_cluster_handoffs_total %d\n", st.Handoffs)
	p("# TYPE lagraphd_cluster_sync_errors_total counter\n")
	p("lagraphd_cluster_sync_errors_total %d\n", st.SyncErrors)
}
