package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"time"

	"lagraph/internal/catalog"
	"lagraph/internal/lagraph"
	"lagraph/internal/store"
	"lagraph/internal/wal"
)

// statusDoc is one node's answer to GET /v1/cluster/status: everything a
// peer needs to decide what to replicate from it.
type statusDoc struct {
	Node    string        `json:"node"`
	Epoch   uint64        `json:"epoch"`
	Ready   bool          `json:"ready"`
	WALHead uint64        `json:"wal_head"`
	Graphs  []graphStatus `json:"graphs"`
}

// graphStatus describes one locally held graph in a status document.
type graphStatus struct {
	Name string `json:"name"`
	// Role is the holder's entry role ("primary" | "replica" | "" for a
	// pre-cluster entry the holder has not reconciled yet).
	Role string `json:"role,omitempty"`
	// Generation is the catalog mutation counter — replicas compare it
	// against their own at lag 0 to detect non-journaled divergence
	// (a primary-side replace is not a WAL record).
	Generation uint64 `json:"generation"`
	// Journal is the holder's journal mark for the graph: on a primary,
	// the last LSN applied in its own WAL — the replication target.
	Journal uint64 `json:"journal"`
	Lag     uint64 `json:"lag,omitempty"`
}

// errSpliceBroken reports a stream window whose carry-in did not match
// the chain digest of the records already applied: the source's history
// diverged from ours (new LSN space or corruption) — re-ship the
// snapshot rather than apply an unverifiable suffix.
var errSpliceBroken = errors.New("cluster: stream window does not splice onto applied history")

// desiredSync is one replication obligation discovered by a pass.
type desiredSync struct {
	src     NodeInfo
	gs      graphStatus
	promote bool
}

// pass runs one reconciliation round: poll every peer, reconcile local
// entry roles (promotion, demotion, handoff drops), then catch up every
// graph this node replicates. No locks are held across network or
// catalog calls — mu only guards the topology/ring pointers and sync-map
// membership.
func (n *Node) pass(ctx context.Context) {
	n.mu.Lock()
	top := n.top
	ring := n.ring
	tombs := make(map[string]bool, len(n.tombs))
	for name := range n.tombs {
		tombs[name] = true
	}
	n.mu.Unlock()

	// 1. Poll peers. listed[nodeID][graph] is each reachable peer's view.
	listed := map[string]map[string]graphStatus{}
	allPolled := true
	var newer NodeInfo // a peer advertising a higher topology epoch
	for _, p := range top.Nodes {
		if p.ID == n.self {
			continue
		}
		doc, err := n.fetchStatus(ctx, p)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			n.syncErrors.Add(1)
			allPolled = false
			continue
		}
		m := make(map[string]graphStatus, len(doc.Graphs))
		for _, g := range doc.Graphs {
			m[g.Name] = g
		}
		listed[p.ID] = m
		if doc.Epoch > top.Epoch && newer.ID == "" {
			newer = p
		}
	}

	// 2. Epoch gossip: a peer holds a newer topology — fetch and adopt it,
	// and let the next tick reconcile under the new ring.
	if newer.ID != "" {
		if t, err := n.fetchTopology(ctx, newer); err == nil {
			if aerr := n.ApplyTopology(t); aerr == nil {
				n.logf("cluster: adopted topology epoch %d from peer %s", t.Epoch, newer.ID)
				return
			}
		}
	}

	// 3. Reconcile local entries against the ring: set roles, complete
	// handoffs (drop once the new owner holds the graph), propagate drops.
	for _, name := range n.cat.Names() {
		e, err := n.cat.Get(name)
		if err != nil {
			continue // dropped concurrently
		}
		owners := ring.Place(name)
		if len(owners) == 0 {
			continue
		}
		primary := owners[0]
		switch roleFor(n.self, owners) {
		case catalog.RolePrimary:
			if e.Role() != catalog.RoleReplica {
				e.SetRole(catalog.RolePrimary)
			}
			// A local replica copy of a graph the ring now assigns to us is
			// adopted through a promote sync (step 4) while any old owner
			// still lists it; if every peer answered and none does, the
			// local copy is all there is — adopt it as-is.
			if e.Role() == catalog.RoleReplica && allPolled && !anyLists(listed, name) {
				n.adopt(name, e)
			}
		case catalog.RoleReplica:
			if e.Role() == catalog.RolePrimary {
				// Demoted: our copy's journal mark is in OUR LSN space, which
				// is useless to the stream from the new primary. Serve reads
				// until the new primary has ADOPTED the graph (lists it with
				// role primary — merely holding a replica copy is not enough:
				// it may still need our WAL suffix), then drop and re-sync
				// snapshot-first from it.
				if listsAsPrimary(listed, primary.ID, name) {
					n.dropLocal(name, "handing off to new primary "+primary.ID)
				}
			} else {
				e.SetRole(catalog.RoleReplica)
				// Drop propagation: our primary answered this pass, no longer
				// holds the graph, and no other peer claims primary ownership
				// either (during a handoff the OLD owner still lists it as
				// primary, which must not read as a drop) — the graph was
				// dropped at the source.
				if _, polled := listed[primary.ID]; polled &&
					!lists(listed, primary.ID, name) && !anyListsAsPrimary(listed, name) {
					n.dropLocal(name, "dropped at primary "+primary.ID)
				}
			}
		case catalog.RoleNone:
			// Parting after an epoch bump: keep serving reads until the new
			// primary has adopted the graph, then hand off.
			if listsAsPrimary(listed, primary.ID, name) {
				n.dropLocal(name, "moved to "+primary.ID)
			}
		}
	}

	// 4. Replication obligations: for every graph a reachable peer holds,
	// sync if the ring makes us a replica (source = ring primary) or the
	// new owner (promote catch-up from the old holder).
	desired := map[string]desiredSync{}
	for _, p := range top.Nodes {
		m, polled := listed[p.ID]
		if !polled {
			continue
		}
		for name, gs := range m {
			owners := ring.Place(name)
			if len(owners) == 0 {
				continue
			}
			switch {
			case owners[0].ID == p.ID && roleFor(n.self, owners) == catalog.RoleReplica:
				// p is the graph's ring primary. Only sync once it has
				// adopted (its entry role is primary): before that, its
				// journal mark is still in a previous owner's LSN space.
				if gs.Role == "primary" {
					desired[name] = desiredSync{src: p, gs: gs}
				}
			case owners[0].ID == n.self:
				if tombs[name] {
					break // deliberately dropped here; do not resurrect
				}
				e, gerr := n.cat.Get(name)
				if gerr == nil && e.Role() != catalog.RoleReplica {
					break // already ours
				}
				// Prefer catching up from a holder that was the primary (its
				// WAL has the authoritative suffix); among replica-only
				// holders take the most advanced copy, node ID breaking ties
				// so every pass picks the same source.
				if cur, ok := desired[name]; !ok || betterSource(gs, p, cur.gs, cur.src) {
					desired[name] = desiredSync{src: p, gs: gs, promote: true}
				}
			}
		}
	}

	// 5. Execute the syncs, names sorted for deterministic logs.
	names := make([]string, 0, len(desired))
	for name := range desired {
		names = append(names, name)
	}
	sort.Strings(names)
	allCaught := true
	for _, name := range names {
		if ctx.Err() != nil {
			return
		}
		if !n.syncGraph(ctx, desired[name]) {
			allCaught = false
		}
	}

	// 6. Expire drop tombstones: when the name is live again locally (a
	// deliberate re-create — DropGraph is atomic under mu, so live +
	// tombstoned cannot be a drop still in progress), or once every peer
	// answered and none lists the name — the drop fully propagated. The
	// liveness check runs under mu for the same atomicity.
	for name := range tombs {
		n.mu.Lock()
		_, liveErr := n.cat.Get(name)
		if liveErr == nil || (allPolled && !anyLists(listed, name)) {
			delete(n.tombs, name)
		}
		n.mu.Unlock()
	}

	// 7. Readiness + lag clock. Ready latches after the first fully
	// successful pass; the lag clock runs whenever something is behind.
	if allPolled && allCaught {
		n.lagSince.Store(0)
		if !n.ready.Load() {
			n.ready.Store(true)
			n.logf("cluster: node %s ready (epoch %d)", n.self, top.Epoch)
		}
	} else if n.lagSince.Load() == 0 {
		n.lagSince.Store(time.Now().UnixNano())
	}
}

// lists reports whether a polled peer holds the named graph.
func lists(listed map[string]map[string]graphStatus, node, name string) bool {
	m, ok := listed[node]
	if !ok {
		return false
	}
	_, ok = m[name]
	return ok
}

// listsAsPrimary reports whether a polled peer holds the named graph
// with an adopted primary role.
func listsAsPrimary(listed map[string]map[string]graphStatus, node, name string) bool {
	m, ok := listed[node]
	if !ok {
		return false
	}
	gs, ok := m[name]
	return ok && gs.Role == "primary"
}

// anyLists reports whether any polled peer holds the named graph.
func anyLists(listed map[string]map[string]graphStatus, name string) bool {
	for _, m := range listed {
		if _, ok := m[name]; ok {
			return true
		}
	}
	return false
}

// anyListsAsPrimary reports whether any polled peer claims primary
// ownership of the named graph.
func anyListsAsPrimary(listed map[string]map[string]graphStatus, name string) bool {
	for _, m := range listed {
		if gs, ok := m[name]; ok && gs.Role == "primary" {
			return true
		}
	}
	return false
}

// betterSource ranks promotion catch-up sources: a primary holder beats
// any replica, a more advanced replica beats a lagging one, and node ID
// breaks ties so source selection is deterministic across passes.
func betterSource(gs graphStatus, p NodeInfo, cur graphStatus, curP NodeInfo) bool {
	if (gs.Role == "primary") != (cur.Role == "primary") {
		return gs.Role == "primary"
	}
	if gs.Journal != cur.Journal {
		return gs.Journal > cur.Journal
	}
	return p.ID < curP.ID
}

// syncGraph brings one replicated graph up to its source's journal
// position: baseline snapshot if there is no local copy, then verified
// WAL windows. Returns true when the graph ended the pass caught up
// (and, for a promotion, adopted).
func (n *Node) syncGraph(ctx context.Context, d desiredSync) bool {
	name := d.gs.Name
	n.mu.Lock()
	s, ok := n.syncs[name]
	sourceChanged := ok && s.source != d.src.ID
	if sourceChanged {
		delete(n.syncs, name)
		ok = false
	}
	if !ok {
		s = &graphSync{name: name, source: d.src.ID}
		n.syncs[name] = s
	}
	s.promote = d.promote
	n.mu.Unlock()

	if sourceChanged {
		// The old cursor lived in another primary's LSN space: any local
		// copy must be re-shipped snapshot-first from the new source.
		n.dropLocal(name, "replication source moved to "+d.src.ID)
	}

	e, err := n.cat.Get(name)
	if d.promote && d.gs.Role != "primary" {
		// The only holders left are replicas: there is no authoritative WAL
		// to stream, so adopt the best available copy — ours if it is at
		// least as advanced as the source's, else the source's snapshot.
		if err == nil && e.JournalSeq() >= d.gs.Journal {
			n.adopt(name, e)
			return true
		}
		e, err = n.installSnapshot(ctx, d.src, name)
		if err != nil {
			n.syncErrors.Add(1)
			n.logf("cluster: snapshot %q from %s: %v", name, d.src.ID, err)
			return false
		}
		n.adopt(name, e)
		return true
	}
	if err != nil {
		e, err = n.installSnapshot(ctx, d.src, name)
		if err != nil {
			n.syncErrors.Add(1)
			n.logf("cluster: snapshot %q from %s: %v", name, d.src.ID, err)
			return false
		}
		s.pos, s.chainOK = e.JournalSeq()+1, false
	} else if s.pos == 0 {
		// Resuming a boot-recovered local copy: its journal mark is the
		// replication position the last local snapshot persisted (it lives
		// in the source's LSN space).
		if e.Role() == catalog.RoleNone {
			e.SetRole(catalog.RoleReplica)
		}
		s.pos, s.chainOK = e.JournalSeq()+1, false
	}
	e.SetSourceHead(d.gs.Journal)

	// Stream catch-up toward the journal position sampled this pass.
	for s.pos <= d.gs.Journal {
		if ctx.Err() != nil {
			return false
		}
		err := n.applyWindow(ctx, d.src, e, s)
		if errors.Is(err, wal.ErrTruncated) || errors.Is(err, errSpliceBroken) {
			// The suffix we need is gone (truncated at the source) or does
			// not splice onto what we hold: fall back to a fresh snapshot.
			n.logf("cluster: resync %q from %s: %v", name, d.src.ID, err)
			n.dropLocal(name, "stream fallback")
			return false
		}
		if err != nil {
			n.syncErrors.Add(1)
			n.logf("cluster: stream %q from %s at %d: %v", name, d.src.ID, s.pos, err)
			return false
		}
	}

	// Caught up by LSN. Generations must now agree — a primary-side
	// replace (not journaled) or a source change across a restart leaves
	// them different. One mismatched poll is tolerated (the source samples
	// journal and generation non-atomically); two in a row re-ships.
	if e.Generation() != d.gs.Generation {
		s.genMismatch++
		if s.genMismatch >= 2 {
			n.logf("cluster: %q generation %d != source %d at lag 0, re-shipping snapshot",
				name, e.Generation(), d.gs.Generation)
			n.dropLocal(name, "generation divergence")
		}
		return false
	}
	s.genMismatch = 0

	if d.promote {
		n.adopt(name, e)
		return true
	}
	return true
}

// applyWindow fetches one WAL window from the source and applies the
// records that belong to e's graph. The cursor advances only when the
// whole window verified; a partial apply is absorbed by the journal-mark
// skip on retry.
func (n *Node) applyWindow(ctx context.Context, src NodeInfo, e *catalog.Entry, s *graphSync) error {
	u := fmt.Sprintf("%s/v1/cluster/wal?from=%d&max=4096", src.URL, s.pos)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode == http.StatusGone {
		return wal.ErrTruncated
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: wal window from %s: status %d", src.ID, resp.StatusCode)
	}
	sr, err := wal.NewStreamReader(resp.Body)
	if err != nil {
		return err
	}
	// Splice check: the window's carry-in digest must equal the chain
	// digest after the last record we already verified.
	if s.chainOK && sr.Carry() != s.chain {
		return errSpliceBroken
	}
	name := e.Name()
	for {
		rec, rerr := sr.Next()
		if errors.Is(rerr, io.EOF) {
			break
		}
		if rerr != nil {
			return rerr
		}
		b, derr := store.DecodeEdgeBatch(rec.Payload)
		if derr != nil {
			return fmt.Errorf("cluster: record %d from %s: %w", rec.LSN, src.ID, derr)
		}
		// The stream carries the source's whole log; records for other
		// graphs are chain-verified and skipped. The journal-mark guard
		// also absorbs re-reads after a partially applied window.
		if b.Name != name || rec.LSN <= e.JournalSeq() {
			continue
		}
		aerr := e.Replicate(func(g *lagraph.Graph) (bool, error) {
			if apErr := store.ApplyEdgeBatch(g, b); apErr != nil {
				return false, apErr
			}
			e.SetJournalSeq(rec.LSN)
			// Replicated batches extend the replica's delta log too, so
			// replica reads can answer mode=incremental without falling
			// back (snapshot re-ships go through Replace, which breaks
			// the chain as an untracked mutation — exactly right).
			e.StageDelta(b.DeltaParts())
			return true, nil
		})
		if aerr != nil {
			return fmt.Errorf("cluster: apply record %d to %q: %w", rec.LSN, name, aerr)
		}
		n.fetchedRecords.Add(1)
	}
	s.chain, s.chainOK, s.pos = sr.Chain(), true, sr.NextLSN()
	return nil
}

// installSnapshot fetches the source's snapshot frame for one graph and
// installs it as a local replica entry: catalog registration, position
// from the frame (the journal mark stays in the source's LSN space), and
// an immediate local snapshot so a restart resumes from this baseline.
func (n *Node) installSnapshot(ctx context.Context, src NodeInfo, name string) (*catalog.Entry, error) {
	u := src.URL + "/v1/cluster/graphs/" + url.PathEscape(name) + "/snapshot"
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: snapshot fetch: status %d", resp.StatusCode)
	}
	meta, payload, err := store.ReadFrame(resp.Body)
	if err != nil {
		return nil, err
	}
	if meta.Name != name {
		return nil, fmt.Errorf("cluster: snapshot frame names %q, want %q", meta.Name, name)
	}
	g, err := lagraph.ReadGraph(bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	if directed := g.Kind == lagraph.Directed; directed != (meta.Kind == "directed") {
		return nil, fmt.Errorf("cluster: snapshot %q payload kind contradicts metadata %q", name, meta.Kind)
	}
	// Registration happens under the ring mutex so it is atomic against
	// DropGraph: a name tombstoned after this pass sampled the peer
	// listings must not be resurrected by an in-flight install.
	n.mu.Lock()
	if n.tombs[name] {
		n.mu.Unlock()
		return nil, fmt.Errorf("cluster: %q was dropped here, not resurrecting", name)
	}
	// Replace any stale local copy wholesale — its journal mark belongs to
	// a different baseline.
	if _, gerr := n.cat.Get(name); gerr == nil {
		n.dropLocalLocked(name, "replaced by fresh snapshot")
	}
	e, err := n.cat.Add(name, g)
	if err != nil {
		n.mu.Unlock()
		return nil, err
	}
	e.SeedGeneration(meta.Generation)
	e.SetJournalSeq(meta.Journal)
	e.SetRole(catalog.RoleReplica)
	n.mu.Unlock()
	n.fetchedSnaps.Add(1)
	if _, serr := n.pers.SnapshotOne(name); serr != nil {
		n.logf("cluster: local snapshot of replica %q: %v", name, serr)
	}
	n.logf("cluster: installed snapshot of %q from %s (gen %d, journal %d)",
		name, src.ID, meta.Generation, meta.Journal)
	return e, nil
}

// adopt finalizes a handoff: this node becomes the graph's primary. The
// journal mark rebases into the local WAL's LSN space — the adopted copy
// already contains every shipped record, and this node is now the single
// writer — and a snapshot pins the rebased floor durably: the generation
// is unchanged but the position pair is not, so the store writes it.
func (n *Node) adopt(name string, e *catalog.Entry) {
	var head uint64
	if l := n.pers.WAL(); l != nil {
		head = l.NextLSN() - 1
	}
	// Finalization is atomic against DropGraph: a name tombstoned while
	// its promote catch-up streamed must stay dropped.
	n.mu.Lock()
	ok := n.adoptLocked(name, e, head)
	n.mu.Unlock()
	if !ok {
		return
	}
	if _, err := n.pers.SnapshotOne(name); err != nil {
		n.logf("cluster: snapshot after adopting %q: %v", name, err)
	}
	n.logf("cluster: adopted %q as primary (journal rebased to %d)", name, head)
}

// adoptLocked flips the entry to primary with n.mu held; false when the
// name was tombstoned mid-catch-up (the drop wins).
//
//grblint:locked mu
func (n *Node) adoptLocked(name string, e *catalog.Entry, head uint64) bool {
	if n.tombs[name] {
		return false
	}
	// The replica's snapshot on disk pins a floor in the old primary's LSN
	// space: it is no baseline for the primary this entry becomes, so
	// Reborn clears the store position. The role flips last, which admits
	// writes before adopt's snapshot lands; the edge handler's
	// Store.Position check inside Ingest then takes the baseline snapshot
	// before it journals the first batch.
	e.SetJournalSeq(head)
	n.pers.Reborn(name)
	e.SetSourceHead(0)
	n.handoffs.Add(1)
	e.SetRole(catalog.RolePrimary)
	delete(n.syncs, name)
	return true
}

// dropLocal removes a graph's local copy: catalog entry, durable
// snapshot, and sync cursor.
func (n *Node) dropLocal(name, reason string) {
	n.mu.Lock()
	n.dropLocalLocked(name, reason)
	n.mu.Unlock()
}

// dropLocalLocked is dropLocal with n.mu already held (lock order
// cluster → catalog → store allows the nested calls).
//
//grblint:locked mu
func (n *Node) dropLocalLocked(name, reason string) {
	if err := n.cat.Drop(name); err == nil {
		n.logf("cluster: dropped local copy of %q: %s", name, reason)
	}
	if _, err := n.pers.Remove(name); err != nil {
		n.logf("cluster: remove durable copy of %q: %v", name, err)
	}
	delete(n.syncs, name)
}

// fetchStatus polls one peer's status document.
func (n *Node) fetchStatus(ctx context.Context, p NodeInfo) (*statusDoc, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.URL+"/v1/cluster/status", nil)
	if err != nil {
		return nil, err
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: status from %s: status %d", p.ID, resp.StatusCode)
	}
	var doc statusDoc
	if err := json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&doc); err != nil {
		return nil, fmt.Errorf("cluster: status from %s: %w", p.ID, err)
	}
	return &doc, nil
}

// fetchTopology pulls a peer's topology document (epoch gossip).
func (n *Node) fetchTopology(ctx context.Context, p NodeInfo) (Topology, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.URL+"/v1/cluster/topology", nil)
	if err != nil {
		return Topology{}, err
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return Topology{}, err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return Topology{}, fmt.Errorf("cluster: topology from %s: status %d", p.ID, resp.StatusCode)
	}
	var doc struct {
		Topology
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&doc); err != nil {
		return Topology{}, err
	}
	return doc.Topology, nil
}

// statusSnapshot builds this node's status document (shared by the
// handler and tests).
func (n *Node) statusSnapshot() statusDoc {
	doc := statusDoc{
		Node:  n.self,
		Epoch: n.Epoch(),
		Ready: n.ready.Load(),
	}
	if l := n.pers.WAL(); l != nil {
		doc.WALHead = l.NextLSN() - 1
	}
	for _, name := range n.cat.Names() {
		e, err := n.cat.Get(name)
		if err != nil {
			continue
		}
		doc.Graphs = append(doc.Graphs, graphStatus{
			Name:       name,
			Role:       e.Role().String(),
			Generation: e.Generation(),
			Journal:    e.JournalSeq(),
			Lag:        e.ReplicaLag(),
		})
	}
	return doc
}

// drainClose drains and closes a response body so the HTTP client can
// reuse the connection.
func drainClose(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, io.LimitReader(body, 1<<20))
	_ = body.Close()
}
