package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"lagraph/internal/catalog"
	"lagraph/internal/store"
)

// Config wires a Node to the rest of the daemon.
type Config struct {
	// Self is this node's ID; it must appear in Topology.Nodes.
	Self string
	// Topology is the boot membership document (epoch >= 1).
	Topology Topology
	// Catalog and Persister are the local graph registry and durability
	// layer the sync loop applies replication through.
	Catalog   *catalog.Catalog
	Persister *store.Persister
	// Client issues peer HTTP requests (default: 30 s timeout).
	Client *http.Client
	// Poll is the sync-loop interval (default 500 ms).
	Poll time.Duration
	// Logf receives cluster life-cycle messages (default: discard).
	Logf func(format string, args ...any)
}

// graphSync is the per-graph replication cursor, owned by the sync-loop
// goroutine: only map membership is shared (under Node.mu); the fields
// are touched by the single manager goroutine alone.
type graphSync struct {
	name   string
	source string // peer node ID the stream comes from
	// pos is the next LSN to request — in the SOURCE primary's LSN space.
	pos uint64
	// chain is the hash-chain digest after the last completed window;
	// the next window's carry-in must equal it (splice verification).
	chain   [32]byte
	chainOK bool
	// promote marks an adoption catch-up: once pos passes the old owner's
	// head, this node rebases the graph into its own LSN space and takes
	// over as primary.
	promote bool
	// genMismatch counts consecutive caught-up passes whose generation
	// disagreed with the source — two in a row forces a snapshot re-ship
	// (one is tolerated: the source samples journal and generation
	// non-atomically, so a racing batch can skew a single poll).
	genMismatch int
}

// Node is one cluster member: it owns the topology + ring, runs the
// replication sync loop, and serves the cluster wire protocol.
type Node struct {
	self string
	cat  *catalog.Catalog
	pers *store.Persister

	client *http.Client
	poll   time.Duration
	logf   func(format string, args ...any)

	// mu is the ring mutex. Lock order: cluster → catalog → store; code
	// holding mu must never call back into svc handlers (grblint's
	// lock-discipline check enforces this mechanically).
	mu    sync.Mutex
	top   Topology              //grblint:guardedby mu
	ring  *Ring                 //grblint:guardedby mu
	syncs map[string]*graphSync //grblint:guardedby mu
	// tombs records deliberate local drops of primary graphs, so the sync
	// loop does not re-adopt a dropped name from replicas that have not
	// yet observed the drop. Entries expire once no peer lists the name.
	tombs map[string]bool //grblint:guardedby mu

	// epoch mirrors top.Epoch for lock-free reads on the routing path.
	epoch atomic.Uint64
	// ready latches true after the first pass where every peer answered
	// and every replica graph was caught up; /readyz gates on it.
	ready atomic.Bool
	// lagSince is the unix-nano instant replication first fell behind
	// (0 = currently caught up); feeds the lag-seconds metric.
	lagSince atomic.Int64

	cancel context.CancelFunc
	done   chan struct{}

	// Wire + routing counters (metrics).
	shippedRecords atomic.Int64
	shippedSnaps   atomic.Int64
	fetchedRecords atomic.Int64
	fetchedSnaps   atomic.Int64
	redirects      atomic.Int64
	handoffs       atomic.Int64
	syncErrors     atomic.Int64
}

// New validates the configuration and builds a Node (not yet running;
// call Start).
func New(cfg Config) (*Node, error) {
	if cfg.Catalog == nil || cfg.Persister == nil {
		return nil, fmt.Errorf("cluster: config needs a catalog and a persister")
	}
	if err := cfg.Topology.Validate(); err != nil {
		return nil, err
	}
	if _, ok := cfg.Topology.Node(cfg.Self); !ok {
		return nil, fmt.Errorf("cluster: node id %q not in topology", cfg.Self)
	}
	n := &Node{
		self:   cfg.Self,
		cat:    cfg.Catalog,
		pers:   cfg.Persister,
		client: cfg.Client,
		poll:   cfg.Poll,
		logf:   cfg.Logf,
		top:    cfg.Topology,
		ring:   NewRing(cfg.Topology),
		syncs:  map[string]*graphSync{},
		tombs:  map[string]bool{},
	}
	if n.client == nil {
		n.client = &http.Client{Timeout: 30 * time.Second}
	}
	if n.poll <= 0 {
		n.poll = 500 * time.Millisecond
	}
	if n.logf == nil {
		n.logf = func(string, ...any) {}
	}
	n.epoch.Store(cfg.Topology.Epoch)
	return n, nil
}

// Start launches the sync loop. The goroutine exits when ctx is
// cancelled or Close is called.
func (n *Node) Start(ctx context.Context) {
	ctx, cancel := context.WithCancel(ctx)
	n.cancel = cancel
	n.done = make(chan struct{})
	go n.run(ctx)
}

// Close stops the sync loop and waits for it to exit.
func (n *Node) Close() {
	if n.cancel == nil {
		return
	}
	n.cancel()
	<-n.done
}

// run is the sync loop: one reconciliation pass immediately (so a
// single-node cluster is ready without waiting a tick), then one per
// poll interval.
func (n *Node) run(ctx context.Context) {
	defer close(n.done)
	ticker := time.NewTicker(n.poll)
	defer ticker.Stop()
	n.pass(ctx)
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			n.pass(ctx)
		}
	}
}

// Epoch returns the current topology epoch (lock-free).
func (n *Node) Epoch() uint64 { return n.epoch.Load() }

// Ready reports whether the initial replica catch-up has completed: all
// peers answered one full pass and every graph this node replicates was
// caught up. Latches true; /readyz gates on it in cluster mode.
func (n *Node) Ready() bool { return n.ready.Load() }

// TopologySnapshot returns a copy of the current topology document.
func (n *Node) TopologySnapshot() Topology {
	n.mu.Lock()
	defer n.mu.Unlock()
	t := n.top
	t.Nodes = append([]NodeInfo(nil), n.top.Nodes...)
	return t
}

// Placement returns the owners of a graph name under the current ring,
// primary first.
func (n *Node) Placement(name string) []NodeInfo {
	n.mu.Lock()
	ring := n.ring
	n.mu.Unlock()
	return ring.Place(name)
}

// RoleOf returns this node's ring role for a graph name plus the
// primary's info. This is the routing hot path: one mutex hand-off for
// the ring pointer, then pure computation.
func (n *Node) RoleOf(name string) (catalog.Role, NodeInfo) {
	owners := n.Placement(name)
	if len(owners) == 0 {
		return catalog.RoleNone, NodeInfo{}
	}
	return roleFor(n.self, owners), owners[0]
}

// roleFor maps a placement list onto this node's role.
func roleFor(self string, owners []NodeInfo) catalog.Role {
	for i, o := range owners {
		if o.ID == self {
			if i == 0 {
				return catalog.RolePrimary
			}
			return catalog.RoleReplica
		}
	}
	return catalog.RoleNone
}

// SyncPending reports whether a replication sync for the named graph is
// in flight (created but not yet caught up / finalized). The service
// layer answers 503 not_ready for such graphs instead of 404.
func (n *Node) SyncPending(name string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, ok := n.syncs[name]
	return ok
}

// DropGraph is the cluster-aware drop: tombstone, catalog drop and
// durable removal happen atomically under the ring mutex (lock order
// cluster → catalog → store permits the nested calls). Without the
// atomicity, the sync loop can slip between the catalog drop and the
// tombstone, see replicas still listing the graph, and resurrect the
// drop by re-adopting from a follower. The tombstone expires once no
// peer lists the name anymore (or the name is deliberately re-created).
// dropErr is the catalog's verdict (ErrNotFound when no entry existed),
// removed reports whether a durable copy was cleared, and removeErr any
// store failure — mirroring the single-node drop path's three outcomes.
func (n *Node) DropGraph(name string) (dropErr error, removed bool, removeErr error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.tombs[name] = true
	delete(n.syncs, name)
	dropErr = n.cat.Drop(name)
	removed, removeErr = n.pers.Remove(name)
	return dropErr, removed, removeErr
}

// ApplyTopology installs a new topology document. The epoch must move
// strictly forward and the document must still include this node.
func (n *Node) ApplyTopology(t Topology) error {
	if err := t.Validate(); err != nil {
		return err
	}
	if _, ok := t.Node(n.self); !ok {
		return fmt.Errorf("cluster: topology epoch %d omits this node %q", t.Epoch, n.self)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if t.Epoch <= n.top.Epoch {
		return fmt.Errorf("cluster: stale topology epoch %d (current %d)", t.Epoch, n.top.Epoch)
	}
	n.top = t
	n.ring = NewRing(t)
	n.epoch.Store(t.Epoch)
	return nil
}

// CountRedirect is bumped by the service layer's routing middleware; it
// lives here so every cluster counter renders from one place.
func (n *Node) CountRedirect() { n.redirects.Add(1) }

// NodeStats is the metrics snapshot of one cluster member.
type NodeStats struct {
	Self         string `json:"self"`
	Epoch        uint64 `json:"epoch"`
	Nodes        int    `json:"nodes"`
	Ready        bool   `json:"ready"`
	PendingSyncs int    `json:"pending_syncs"`
	// MaxLagLSN is the worst replication-lag LSN across local replica
	// entries (0 = every replica caught up to its source's last observed
	// journal position).
	MaxLagLSN uint64 `json:"max_lag_lsn"`
	// LagSeconds is how long replication has currently been behind
	// (0 when caught up).
	LagSeconds       float64 `json:"lag_seconds"`
	ShippedRecords   int64   `json:"shipped_records"`
	ShippedSnapshots int64   `json:"shipped_snapshots"`
	FetchedRecords   int64   `json:"fetched_records"`
	FetchedSnapshots int64   `json:"fetched_snapshots"`
	Redirects        int64   `json:"redirects"`
	Handoffs         int64   `json:"handoffs"`
	SyncErrors       int64   `json:"sync_errors"`
}

// Stats snapshots the cluster counters for the metrics endpoint.
func (n *Node) Stats() NodeStats {
	n.mu.Lock()
	epoch := n.top.Epoch
	nodes := len(n.top.Nodes)
	pending := len(n.syncs)
	n.mu.Unlock()
	var maxLag uint64
	for _, name := range n.cat.Names() {
		e, err := n.cat.Get(name)
		if err != nil {
			continue
		}
		if l := e.ReplicaLag(); l > maxLag {
			maxLag = l
		}
	}
	var lagSec float64
	if since := n.lagSince.Load(); since != 0 {
		lagSec = time.Since(time.Unix(0, since)).Seconds()
	}
	return NodeStats{
		Self:             n.self,
		Epoch:            epoch,
		Nodes:            nodes,
		Ready:            n.ready.Load(),
		PendingSyncs:     pending,
		MaxLagLSN:        maxLag,
		LagSeconds:       lagSec,
		ShippedRecords:   n.shippedRecords.Load(),
		ShippedSnapshots: n.shippedSnaps.Load(),
		FetchedRecords:   n.fetchedRecords.Load(),
		FetchedSnapshots: n.fetchedSnaps.Load(),
		Redirects:        n.redirects.Load(),
		Handoffs:         n.handoffs.Load(),
		SyncErrors:       n.syncErrors.Load(),
	}
}
