// lagraphd is the graph-query daemon: it holds a catalog of named graphs
// resident in memory with warmed property caches and serves JSON queries
// over HTTP (see internal/svc for the endpoint contract).
//
// Usage:
//
//	lagraphd -addr :8487 -workers 8 -queue 32 -timeout 30s
//	lagraphd -addr :8487 -data /var/lib/lagraphd -snapshot-interval 30s
//	lagraphd -addr :8487 -data /var/lib/a -node-id a \
//	    -peers a=http://h1:8487,b=http://h2:8487,c=http://h3:8487 \
//	    -replicas 1
//
// With -data the daemon is durable: graphs are periodically snapshotted
// to checksummed frame files (see internal/store), reloaded on boot, and
// flushed on graceful shutdown. Edge-batch mutations (POST .../edges) are
// additionally journaled to a hash-chained write-ahead log under
// <data>/wal before they are acknowledged, so boot recovery is snapshot +
// WAL-suffix replay and a kill -9 at any moment loses nothing that was
// acknowledged — the fsync of the journal record is the durability point
// (disable with -wal-sync=false to trade that for throughput).
//
// With -node-id and -peers the daemon is one member of a static-topology
// cluster (requires -data): a consistent-hash ring places every graph on
// a primary plus -replicas replicas, primaries ship snapshot frames and
// live WAL records to replicas, and requests for graphs this node does
// not own are answered with a 307 redirect to the owner (so the primary
// fsync remains the durability point for writes). The listener comes up
// BEFORE boot recovery so /readyz can answer: with -data it stays 503
// (and mutations answer 503 not_ready) until snapshot+WAL replay
// completes and, in cluster mode, until the initial replica catch-up
// converged; without -data there is nothing to recover.
//
// Endpoints (the API lives under /v1 only; the operational endpoints are
// unversioned):
//
//	POST   /v1/graphs                  load/generate a named graph
//	GET    /v1/graphs                  list registered graphs (limit/cursor pagination)
//	GET    /v1/graphs/{name}           cached properties of one graph
//	DELETE /v1/graphs/{name}           drop a graph (and its durable snapshot)
//	POST   /v1/graphs/{name}/query     run an algorithm (bfs, sssp, pagerank, ...)
//	POST   /v1/graphs/{name}/edges     ingest an edge-mutation batch (journaled)
//	POST   /v1/graphs/{name}/snapshot  persist one graph now (requires -data)
//	POST   /v1/admin/flush             persist every dirty graph (requires -data)
//	GET    /v1/cluster/topology        current membership document (cluster mode)
//	POST   /v1/cluster/topology        install a higher-epoch document (rebalance)
//	GET    /v1/cluster/status          per-graph replication positions
//	GET    /healthz                    liveness
//	GET    /readyz                     readiness (503 until recovery + catch-up)
//	GET    /metrics                    Prometheus text format
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"lagraph/internal/catalog"
	"lagraph/internal/cluster"
	"lagraph/internal/obs"
	"lagraph/internal/store"
	"lagraph/internal/svc"
	"lagraph/internal/wal"
)

func main() {
	addr := flag.String("addr", ":8487", "listen address")
	workers := flag.Int("workers", 0, "max concurrently executing queries (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "max queries queued for a worker slot (0 = 4×workers)")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-query deadline")
	maxTimeout := flag.Duration("max-timeout", 5*time.Minute, "upper clamp on client-requested deadlines")
	allowPath := flag.Bool("allow-path-load", false, "permit POST /v1/graphs to read files from this host's filesystem")
	dataDir := flag.String("data", "", "directory for durable graph snapshots (empty = volatile)")
	snapEvery := flag.Duration("snapshot-interval", 30*time.Second, "how often to snapshot dirty graphs (0 disables the background snapshotter; requires -data)")
	walSync := flag.Bool("wal-sync", true, "fsync the edge journal on every accepted batch (requires -data; false trades durability for throughput)")
	nodeID := flag.String("node-id", "", "this node's cluster member ID (enables cluster mode; requires -data and -peers)")
	peers := flag.String("peers", "", "cluster membership as id=url,id=url,... (must include -node-id)")
	replicas := flag.Int("replicas", 1, "replica copies per graph beyond the primary (cluster mode)")
	clusterEpoch := flag.Uint64("cluster-epoch", 1, "epoch of the boot topology document (bump after a -peers change so restarted nodes agree)")
	clusterPoll := flag.Duration("cluster-poll", 500*time.Millisecond, "replication sync-loop interval (cluster mode)")
	flag.Parse()

	var topology *cluster.Topology
	if *nodeID != "" || *peers != "" {
		var err error
		topology, err = parsePeers(*peers, *replicas, *clusterEpoch)
		if *nodeID == "" || *peers == "" || *dataDir == "" {
			err = errors.New("cluster mode needs -node-id, -peers and -data (replication streams the WAL)")
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "lagraphd:", err)
			os.Exit(2)
		}
	}

	// Kernel-level op records from every query flow into one process-wide
	// Counters sink, rendered by /metrics.
	counters := &obs.Counters{}
	obs.Set(counters)

	cat := catalog.New()
	var pers *store.Persister
	var jl *wal.Log
	if *dataDir != "" {
		st, err := store.Open(*dataDir)
		if err != nil {
			log.Fatal("lagraphd: ", err)
		}
		pers = store.NewPersister(st, cat)
		// The edge journal lives beside the snapshots. Opening it first
		// also runs its own recovery (chain verification, torn-tail
		// truncation), so LoadAll below can replay the suffix.
		jl, err = wal.Open(filepath.Join(*dataDir, "wal"), wal.Options{NoSync: !*walSync})
		if err != nil {
			log.Fatal("lagraphd: ", err)
		}
		defer jl.Close()
		pers.AttachWAL(jl)
		if rec := jl.Recovery(); rec.TornBytes > 0 {
			log.Printf("lagraphd: wal: dropped %d bytes of torn tail from %s (crash mid-append; tolerated)",
				rec.TornBytes, rec.TornFile)
		}
	}

	var node *cluster.Node
	if topology != nil {
		var err error
		node, err = cluster.New(cluster.Config{
			Self:      *nodeID,
			Topology:  *topology,
			Catalog:   cat,
			Persister: pers,
			Poll:      *clusterPoll,
			Logf:      log.Printf,
		})
		if err != nil {
			log.Fatal("lagraphd: ", err)
		}
	}

	srv := svc.New(cat, counters, svc.Config{
		Workers:        *workers,
		Queue:          *queue,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		AllowPathLoad:  *allowPath,
		Persister:      pers,
		Cluster:        node,
	})

	// Shutdown counts a connection whose first request is unread
	// (StateNew) as active until it is 5 s old, so a client that dialled
	// and never wrote would hold the drain that long. silent holds such
	// connections, and the drain closes them. None has a request in a
	// handler: one whose first request was still arriving is dropped, as
	// Shutdown drops it at 5 s.
	var silent sync.Map
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ConnState: func(c net.Conn, st http.ConnState) {
			if st == http.StateNew {
				silent.Store(c, nil)
			} else {
				silent.Delete(c)
			}
		},
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The listener comes up before recovery so orchestrators see /healthz
	// immediately and /readyz honestly: 503 while graphs are rebuilt
	// (mutations are gated the same way; see svc.routeMutation).
	errc := make(chan error, 1)
	log.Printf("lagraphd: listening on %s", *addr)
	//grblint:ignore goroutine-lifecycle: ListenAndServe returns when Shutdown closes the listener; errc is buffered so the send never blocks
	go func() { errc <- hs.ListenAndServe() }()

	if pers != nil {
		// Boot-time recovery: replay every live snapshot, then the journal
		// records beyond each snapshot's pinned offset. Corrupt files are
		// quarantined to *.corrupt and logged — a damaged snapshot must
		// never keep the daemon from serving the healthy ones.
		events, err := pers.LoadAll()
		if err != nil {
			log.Fatal("lagraphd: ", err)
		}
		for _, ev := range events {
			switch {
			case ev.Err == nil:
				log.Printf("lagraphd: recovered %q (gen %d, %d vertices, %d edges) from %s",
					ev.Name, ev.Meta.Generation, ev.Meta.NRows, ev.Meta.NVals, ev.File)
			case ev.Quarantined:
				log.Printf("lagraphd: recovery: quarantined %s (%s): %v", ev.File, ev.Name, ev.Err)
			default:
				log.Printf("lagraphd: recovery: skipped %s (%s), snapshot kept for a later boot: %v", ev.File, ev.Name, ev.Err)
			}
		}
		if rs := pers.ReplayStats(); rs.Applied+rs.SkippedFloor+rs.SkippedUnknown > 0 {
			log.Printf("lagraphd: wal: replayed %d edge batches (%d below snapshot floors, %d for unknown graphs)",
				rs.Applied, rs.SkippedFloor, rs.SkippedUnknown)
		}
		log.Printf("lagraphd: durable store at %s (%d graphs, wal next LSN %d)",
			*dataDir, len(cat.Names()), jl.NextLSN())
		srv.MarkBootReady()
	}

	// The sync loop starts only after local recovery: peer status answers
	// must reflect the recovered journal positions, not an empty catalog.
	if node != nil {
		node.Start(ctx)
		defer node.Close()
		log.Printf("lagraphd: cluster member %q (epoch %d, %d nodes, %d replicas)",
			*nodeID, topology.Epoch, len(topology.Nodes), topology.Replicas)
	}

	// Background snapshotter: every interval, persist graphs whose
	// generation moved since their last durable write. Runs off the query
	// path — snapshots share each entry's read lock with queries.
	if pers != nil && *snapEvery > 0 {
		go snapshotLoop(ctx, pers, *snapEvery)
	}

	select {
	case <-ctx.Done():
		// Graceful shutdown: stop replicating first (so the flush below is
		// not racing stream applies), then stop accepting, let in-flight
		// queries finish up to their own deadlines (bounded by max-timeout
		// + slack), then flush dirty graphs so a clean stop loses nothing.
		log.Printf("lagraphd: signal received, draining")
		if node != nil {
			node.Close()
		}
		sctx, cancel := context.WithTimeout(context.Background(), *maxTimeout+5*time.Second)
		defer cancel()
		hs.RegisterOnShutdown(func() {
			<-errc // Serve has returned, and every connection it accepted has reported StateNew
			silent.Range(func(c, _ any) bool { c.(net.Conn).Close(); return true })
		})
		if err := hs.Shutdown(sctx); err != nil {
			log.Fatalf("lagraphd: shutdown: %v", err)
		}
		if pers != nil {
			res, err := pers.FlushDirty()
			if err != nil {
				log.Fatalf("lagraphd: final flush: %v", err)
			}
			log.Printf("lagraphd: final flush: %d snapshotted, %d already clean",
				len(res.Snapshotted), res.Clean)
		}
		log.Printf("lagraphd: drained, bye")
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatal("lagraphd: ", err)
		}
	}
}

// parsePeers turns "id=url,id=url,..." into a topology document. Every
// node in the cluster must be started with an identical -peers string
// (placement is a pure function of the document), so the format is kept
// order-insensitive and strict: duplicates and malformed entries are
// boot errors, not warnings.
func parsePeers(spec string, replicas int, epoch uint64) (*cluster.Topology, error) {
	t := &cluster.Topology{Epoch: epoch, Replicas: replicas}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, url, ok := strings.Cut(part, "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("bad -peers entry %q (want id=url)", part)
		}
		t.Nodes = append(t.Nodes, cluster.NodeInfo{ID: id, URL: strings.TrimRight(url, "/")})
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// snapshotLoop persists graphs whose generation moved since their last
// durable write, every interval, until ctx ends. Runs off the query path:
// snapshots share each entry's read lock with queries. A named function
// (not a literal in main) so the shutdown test can drive and leak-check
// it directly.
func snapshotLoop(ctx context.Context, pers *store.Persister, every time.Duration) {
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			res, err := pers.FlushDirty()
			if err != nil {
				log.Printf("lagraphd: background snapshot: %v", err)
			}
			for _, sr := range res.Snapshotted {
				log.Printf("lagraphd: snapshotted %q gen %d (%d bytes, %.1fms)",
					sr.Name, sr.Generation, sr.Bytes, sr.ElapsedMS)
			}
		}
	}
}
