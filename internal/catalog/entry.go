package catalog

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"lagraph/internal/lagraph"
)

// Role places an entry in a cluster: RoleNone on a single-node daemon,
// RolePrimary when this node owns the graph's write path, RoleReplica
// when the graph is a read-only replication follower here.
type Role int32

// Entry roles. The zero value (RoleNone) is the pre-cluster behavior.
const (
	RoleNone Role = iota
	RolePrimary
	RoleReplica
)

// String renders the role for JSON surfaces ("" for RoleNone, so
// single-node responses are byte-identical to the pre-cluster daemon).
func (r Role) String() string {
	switch r {
	case RolePrimary:
		return "primary"
	case RoleReplica:
		return "replica"
	default:
		return ""
	}
}

// Properties is the cheaply observable state of an entry: the structural
// facts algorithms and operators keep asking for, computed once per
// generation by the first reader that asks instead of per query.
type Properties struct {
	Name       string `json:"name"`
	Directed   bool   `json:"directed"`
	N          int    `json:"n"`
	NEdges     int    `json:"nedges"`
	NSelfLoops int    `json:"nself_loops"`
	Empty      bool   `json:"empty"`
	// Symmetric reports structural+numerical symmetry of the adjacency;
	// computed by the first Properties call of a generation (one compare
	// of A with Aᵀ through A's column form, no transpose built), then
	// cached on the graph until the next mutation.
	Symmetric bool `json:"symmetric"`
	// Generation counts mutations: it bumps on every Update, so clients
	// can detect that cached derived data went stale.
	Generation uint64 `json:"generation"`
	// Warm reports whether the adjacency has no pending tuples, so that
	// readers may share it.
	Warm bool `json:"warm"`
	// Role is the entry's cluster placement role ("primary" | "replica";
	// empty on a single-node daemon, keeping pre-cluster responses
	// unchanged).
	Role string `json:"role,omitempty"`
	// ReplicaLag is the replication-lag LSN of a replica entry: how many
	// journal records the source primary has applied beyond this copy.
	// Zero when caught up (and always zero for non-replicas).
	ReplicaLag uint64 `json:"replica_lag,omitempty"`
}

// Entry wraps one registered graph with the reader/writer protocol
// described in the package comment.
type Entry struct {
	name string
	cat  *Catalog

	mu   sync.RWMutex
	g    *lagraph.Graph //grblint:guardedby mu
	warm bool           //grblint:guardedby mu
	// gen is atomic (not guarded by mu) so Generation can be read from
	// inside a View callback — a nested RLock would deadlock against a
	// queued writer. Writes still happen only under the exclusive lock.
	gen atomic.Uint64
	// jseq is the journal high-water mark: the WAL sequence number of the
	// last edge batch applied to this entry (0 = never mutated through the
	// streaming write path). Atomic for the same reason as gen; advanced
	// only under the exclusive lock (inside Ingest) or before publication
	// (boot recovery). On a replica entry the value lives in the SOURCE
	// primary's LSN space — it is the replication position, not a local
	// journal offset.
	jseq atomic.Uint64
	// role is the entry's cluster placement (stored as int32 so the
	// routing hot path reads it lock-free). RoleReplica turns the entry
	// read-only for Update/Ingest; only Replicate may mutate it.
	role atomic.Int32
	// srcHead is the source primary's last observed journal position for
	// this graph (replica entries only; the sync loop advances it). The
	// replication-lag LSN is srcHead - jseq, clamped at zero.
	srcHead atomic.Uint64

	// staged carries one Ingest callback's declared delta to the
	// post-bump commit (see results.go).
	staged *stagedDelta //grblint:guardedby mu

	// resMu guards the prior-result cache and the delta log (results.go).
	// It nests strictly inside mu: cache methods are called from View and
	// Ingest callbacks with mu held, and never take mu themselves.
	resMu      sync.Mutex
	results    map[string]CachedResult //grblint:guardedby resMu
	deltas     []deltaRec              //grblint:guardedby resMu
	deltaOps   int                     //grblint:guardedby resMu
	deltaFloor uint64                  //grblint:guardedby resMu
}

// Name returns the registered name.
func (e *Entry) Name() string { return e.name }

// View runs fn with the entry's read lock held and the adjacency's
// pending tuples assembled: fn may run any read-only algorithm
// concurrently with other View calls. The graph's cached properties
// (degrees, self-loops, symmetry, the prepared triangle-count input) and
// A's column form are built here, under the shared lock, by the first
// reader that asks; lagraph publishes each atomically and grb builds the
// column form under its own mutex, so concurrent readers may race to build
// one. fn must not mutate the graph; mutations go through Update.
//
//grblint:holdslock mu read
func (e *Entry) View(fn func(g *lagraph.Graph) error) error {
	for {
		e.mu.RLock()
		if e.warm {
			defer e.mu.RUnlock()
			e.cat.views.Add(1)
			return fn(e.g)
		}
		e.mu.RUnlock()
		e.warmNow()
		// Loop: a writer may have slipped in between warmNow's unlock and
		// our RLock; re-check warm under the read lock.
	}
}

// Update runs fn with the exclusive lock held; fn may mutate the graph
// freely (SetElement on the adjacency, structural edits, even swapping
// e.g the matrix). On exit — success or error — the entry invalidates the
// property cache, assembles all pending tuples (Wait before publish:
// readers must never race a lazy assembly), and bumps the generation.
// That assembly is all a warm does, so the entry is published warm.
//
//grblint:holdslock mu
func (e *Entry) Update(fn func(g *lagraph.Graph) error) error {
	if e.Role() == RoleReplica {
		return fmt.Errorf("%w: %q", ErrReadOnly, e.name)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	err := fn(e.g)
	// Even a failed update may have mutated: always invalidate + publish.
	e.g.InvalidateCache()
	e.g.A.Wait()
	e.warm = true
	e.gen.Add(1)
	e.cat.updates.Add(1)
	// An Update is an untracked mutation: cached results stay (stale),
	// but the delta chain to them is broken.
	e.invalidateDeltas()
	return err
}

// Ingest runs fn with the exclusive lock held, for the streaming edge
// write path. It differs from Update in one deliberate way: pending
// tuples are NOT assembled before publish. fn is expected to land edge
// batches as pending tuples (grb SetElements / RemoveElement), and
// assembly is deferred to the next reader's warm — that deferral is what
// makes per-batch ingest latency independent of graph size (paper §II-A:
// e buffered insertions assemble once in O(e log e), not e times). The
// "Wait before publish" rule is preserved in spirit because the entry is
// published COLD: the next View warms (and therefore assembles) under
// the exclusive lock before any reader touches the graph.
//
// fn reports whether it mutated the graph. Cache invalidation and the
// generation bump happen only when it did — a batch rejected whole by
// validation leaves the entry warm and its generation unchanged.
//
//grblint:holdslock mu
func (e *Entry) Ingest(fn func(g *lagraph.Graph) (mutated bool, err error)) error {
	if e.Role() == RoleReplica {
		return fmt.Errorf("%w: %q", ErrReadOnly, e.name)
	}
	return e.ingest(fn)
}

// Replicate is the replication apply path: identical locking and
// publication semantics to Ingest, but permitted on replica entries. The
// cluster sync loop is its only intended caller — it applies journal
// records shipped from the graph's primary, which is exactly the one
// mutation source a read-only replica must still accept.
//
//grblint:holdslock mu
func (e *Entry) Replicate(fn func(g *lagraph.Graph) (mutated bool, err error)) error {
	return e.ingest(fn)
}

//grblint:holdslock mu
func (e *Entry) ingest(fn func(g *lagraph.Graph) (mutated bool, err error)) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.staged = nil
	mutated, err := fn(e.g)
	staged := e.staged
	e.staged = nil
	if mutated {
		e.g.InvalidateCache()
		e.warm = false
		e.gen.Add(1)
		e.cat.ingests.Add(1)
		// A cleanly applied batch the callback declared via StageDelta
		// extends the tracked delta chain; anything else (no declaration,
		// or a partial apply) breaks it.
		if err == nil && staged != nil {
			e.commitDelta(e.gen.Load(), staged)
		} else {
			e.invalidateDeltas()
		}
	}
	return err
}

// SetRole places the entry in the cluster (RoleReplica turns it
// read-only). Lock-free: the routing layer flips roles on topology
// changes while queries run.
func (e *Entry) SetRole(r Role) { e.role.Store(int32(r)) }

// Role returns the entry's cluster placement role.
func (e *Entry) Role() Role { return Role(e.role.Load()) }

// SetSourceHead records the source primary's journal position for this
// graph (replica entries; advanced by the sync loop as it polls).
func (e *Entry) SetSourceHead(lsn uint64) { e.srcHead.Store(lsn) }

// ReplicaLag returns the replication-lag LSN: journal records the source
// primary holds beyond this copy. Zero when caught up, and always zero
// for non-replica entries.
func (e *Entry) ReplicaLag() uint64 {
	if e.Role() != RoleReplica {
		return 0
	}
	head, applied := e.srcHead.Load(), e.jseq.Load()
	if head <= applied {
		return 0
	}
	return head - applied
}

// SetJournalSeq records the WAL sequence number of the last edge batch
// applied to this entry. Call inside the Ingest callback or a Load birth
// hook (the exclusive lock is held), or before the entry is published
// (boot recovery). A birth hook stamps the mark at the log head, so the
// floor the graph's first snapshot pins excludes every WAL record of an
// earlier graph under the same name.
func (e *Entry) SetJournalSeq(lsn uint64) { e.jseq.Store(lsn) }

// JournalSeq returns the WAL high-water mark of this entry (0 = no edge
// batch ever applied). Lock-free, safe inside View callbacks.
func (e *Entry) JournalSeq() uint64 { return e.jseq.Load() }

// Properties returns the entry's structural facts. It runs under View's
// shared lock: the self-loop count and the symmetry flag are the graph's
// cached properties, built by the first call of a generation.
func (e *Entry) Properties() Properties {
	var p Properties
	_ = e.View(func(g *lagraph.Graph) error {
		p = Properties{
			Name:       e.name,
			Directed:   g.Kind == lagraph.Directed,
			N:          g.N(),
			NEdges:     g.NEdges(),
			NSelfLoops: g.NSelfLoops(),
			Empty:      g.NEdges() == 0,
			Symmetric:  g.IsSymmetric(),
			Generation: e.gen.Load(),
			Warm:       e.warm,
			Role:       e.Role().String(),
			ReplicaLag: e.ReplicaLag(),
		}
		return nil
	})
	return p
}

// Generation returns the current mutation count. It is lock-free and
// therefore safe to call from inside a View callback.
func (e *Entry) Generation() uint64 {
	return e.gen.Load()
}

// SeedGeneration initializes the mutation counter of a freshly added
// entry. Boot recovery uses it to make generations continue the durable
// sequence persisted in a snapshot instead of restarting at zero, which
// keeps them comparable across process restarts. Call only on an entry
// that has not yet been mutated or snapshotted.
func (e *Entry) SeedGeneration(gen uint64) {
	e.gen.Store(gen)
}

// SnapshotInfo describes the graph state a Snapshot captured.
type SnapshotInfo struct {
	// Generation is the mutation counter the snapshot pinned: the bytes
	// written are exactly the graph as of this generation.
	Generation uint64
	// Journal is the WAL high-water mark the snapshot captured: every
	// edge batch with sequence <= Journal is contained in the bytes, so
	// boot recovery replays only the suffix beyond it.
	Journal   uint64
	Directed  bool
	N, NEdges int
}

// Snapshot serializes the graph to w under the shared read lock at a
// pinned generation: concurrent View queries keep running while the
// bytes stream out, and no Update can interleave (writers queue on the
// exclusive lock). Because View warms the entry first, the adjacency has
// no pending tuples and serialization is a pure read — two snapshots of
// the same generation are bitwise identical.
func (e *Entry) Snapshot(w io.Writer) (SnapshotInfo, error) {
	var info SnapshotInfo
	err := e.View(func(g *lagraph.Graph) error {
		info = SnapshotInfo{
			Generation: e.gen.Load(),
			Journal:    e.jseq.Load(),
			Directed:   g.Kind == lagraph.Directed,
			N:          g.N(),
			NEdges:     g.NEdges(),
		}
		return lagraph.WriteGraph(w, g)
	})
	return info, err
}

// warmNow assembles the adjacency's pending tuples under the exclusive
// lock: the one lazy step that writes A itself. A's column form is built
// under its own mutex and the graph's properties are published
// atomically, so both are left to the reader that asks for them.
func (e *Entry) warmNow() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.warm {
		return // another reader warmed while we waited
	}
	e.g.A.Wait()
	e.warm = true
	e.cat.warms.Add(1)
}
