// Package cluster turns lagraphd into a static-topology multi-node
// service: a consistent-hash ring places every graph name on a primary
// plus R replicas, primaries ship baseline snapshot frames followed by
// live WAL records to their replicas (reusing internal/wal's record
// framing and chain verification as the wire protocol — see wal.StreamTo
// and wal.StreamReader), and replicas apply the stream through the
// existing catalog/persister path so they serve read-only queries with a
// reported replication-lag LSN.
//
// # Placement
//
// The ring is a pure function of the topology document: every node
// contributes VNodes virtual points (a 64-bit digest of "id#k"), a graph name
// hashes to a point, and ownership is the next 1+R distinct nodes
// clockwise. Two nodes holding the same topology therefore compute
// identical placements with no coordination — the only shared state is
// the topology document itself, which changes only by an explicit epoch
// bump (POST /v1/cluster/topology to every node).
//
// # Replication
//
// Replication is pull-based: each node runs one sync loop that polls the
// status endpoint of every peer, discovers graphs whose ring placement
// makes this node a replica, and catches each one up — baseline snapshot
// frame first (the store's CRC-64 framed format, floor-pinned exactly
// like a local snapshot), then windows of the primary's WAL filtered to
// that graph. Every window is CRC + hash-chain + LSN-density verified
// with the same code boot recovery uses, and consecutive windows must
// splice (the new window's carry-in digest equals the digest of the last
// record already applied). A replica's journal mark lives in its SOURCE
// primary's LSN space; local snapshots persist it, so a restarted
// replica resumes the stream from its snapshot floor — recovery is
// "snapshot + WAL-stream catch-up", the distributed mirror of the local
// "snapshot + WAL replay".
//
// # Lock order
//
// The repo-wide lock order gains an outermost layer: cluster → catalog →
// store. The sync loop may consult the catalog while holding the ring
// mutex is NOT allowed in the other direction — and cluster code must
// never call back into svc handlers while holding the ring mutex (svc
// calls into cluster on every routed request; re-entry would deadlock).
// grblint's lock-discipline check enforces the svc half mechanically.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// NodeInfo identifies one cluster member.
type NodeInfo struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

// Topology is the static membership document every node is configured
// with (and that an operator re-POSTs, with a higher epoch, to change).
type Topology struct {
	// Epoch versions the document: a node only accepts a topology with a
	// strictly higher epoch, and rebalancing is keyed off the bump.
	Epoch uint64 `json:"epoch"`
	// Replicas is R: each graph gets one primary plus up to R replicas
	// (clamped by cluster size).
	Replicas int `json:"replicas"`
	// VNodes is the virtual-node count per member (0 selects 64). More
	// points smooth the placement distribution.
	VNodes int `json:"vnodes,omitempty"`
	// Nodes are the members. Order does not affect placement.
	Nodes []NodeInfo `json:"nodes"`
}

// Validate checks structural sanity: a usable epoch, at least one node,
// distinct IDs, and URLs present.
func (t Topology) Validate() error {
	if t.Epoch == 0 {
		return fmt.Errorf("cluster: topology epoch must be >= 1")
	}
	if len(t.Nodes) == 0 {
		return fmt.Errorf("cluster: topology has no nodes")
	}
	if t.Replicas < 0 {
		return fmt.Errorf("cluster: negative replica count %d", t.Replicas)
	}
	seen := map[string]bool{}
	for _, n := range t.Nodes {
		if n.ID == "" || n.URL == "" {
			return fmt.Errorf("cluster: node needs both id and url, got %+v", n)
		}
		if seen[n.ID] {
			return fmt.Errorf("cluster: duplicate node id %q", n.ID)
		}
		seen[n.ID] = true
	}
	return nil
}

// Node returns the member with the given ID.
func (t Topology) Node(id string) (NodeInfo, bool) {
	for _, n := range t.Nodes {
		if n.ID == id {
			return n, true
		}
	}
	return NodeInfo{}, false
}

// ringPoint is one virtual node on the hash circle.
type ringPoint struct {
	hash uint64
	node int // index into nodes
}

// Ring is the materialized consistent-hash circle for one topology.
// Immutable once built; placement is a pure read.
type Ring struct {
	nodes    []NodeInfo
	points   []ringPoint
	replicas int
}

// DefaultVNodes is the virtual-node count per member when the topology
// leaves VNodes zero.
const DefaultVNodes = 64

// NewRing materializes the hash circle for a topology. Building is
// deterministic: the same topology document yields the same ring on
// every node, whatever the struct's field or slice ordering history.
func NewRing(t Topology) *Ring {
	vn := t.VNodes
	if vn <= 0 {
		vn = DefaultVNodes
	}
	// Sort members by ID first so node indices (the hash tie-break) are
	// topology-order independent.
	nodes := append([]NodeInfo(nil), t.Nodes...)
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
	r := &Ring{nodes: nodes, replicas: t.Replicas, points: make([]ringPoint, 0, vn*len(nodes))}
	for i, n := range nodes {
		for k := 0; k < vn; k++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", n.ID, k)), node: i})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return r
}

// Place returns the owners of a graph name: the primary first, then up
// to Replicas distinct replica nodes, walking clockwise from the name's
// hash point. With fewer members than 1+R the whole membership owns the
// graph.
func (r *Ring) Place(name string) []NodeInfo {
	if len(r.points) == 0 {
		return nil
	}
	want := r.replicas + 1
	if want > len(r.nodes) {
		want = len(r.nodes)
	}
	h := hash64(name)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	owners := make([]NodeInfo, 0, want)
	taken := map[int]bool{}
	for i := 0; i < len(r.points) && len(owners) < want; i++ {
		pt := r.points[(start+i)%len(r.points)]
		if taken[pt.node] {
			continue
		}
		taken[pt.node] = true
		owners = append(owners, r.nodes[pt.node])
	}
	return owners
}

// hash64 maps a string onto the ring circle: the first 8 bytes of its
// SHA-256 digest. A cheap multiplicative hash (FNV) is not good enough
// here — vnode keys are short near-identical strings ("a#0", "a#1", …)
// and poor avalanche behavior clusters a member's points so badly that
// whole nodes can end up owning nothing. Ring builds hash vnodes·nodes
// strings once per topology change and placements hash one name, so the
// stronger digest costs nothing measurable.
func hash64(s string) uint64 {
	d := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(d[:8])
}
