// loadgen is the lagraphd load-generator and smoke-test client: it loads
// a generated graph into a running daemon, fires a configurable number of
// concurrent queries across a mix of algorithms, checks every response is
// 2xx with a coherent body, asserts that repeated runs of the same query
// return identical checksums (the determinism contract), and finally
// validates the /metrics payload. Exit status 0 means the round-trip is
// healthy; any protocol violation exits 1 — which is exactly what the CI
// server-smoke job keys on.
//
// With -edges N the mix also ingests N deterministic edge batches (POST
// /v1/graphs/{name}-mut/edges) against a second copy of the graph,
// interleaved with the query traffic. The batches are derived from their
// index alone and pairwise disjoint, so the mutated graph's final state
// is identical regardless of interleaving; a verification pass records
// its post-ingest checksums under mut:* keys.
//
// For crash-recovery smoke testing it can also flush the daemon's
// durable store (-flush), record the per-algorithm checksums to a file
// (-checksums-out), skip loading and query a graph recovered from disk
// (-no-load), and assert the checksums match a previous run
// (-checksums-in) — proving a restarted daemon serves bitwise-identical
// results from its snapshots (and, for mut:* keys, from snapshot + WAL
// replay).
//
// With -dual the run adds an interleaved ingest→query pass against the
// mutation copy: each round ingests one deterministic insert-only batch,
// then issues cc/bfs/pagerank in BOTH mode=full and mode=incremental
// (pagerank via mode=verify, which asserts the tolerance-level
// equivalence server-side) and exits 1 on any checksum divergence
// between the modes. The final dual-pass checksums go into the sums file
// under inc:* keys; the dual batches are idempotent (disjoint last-wins
// upserts), so a recovery run repeating the pass must reproduce them
// bitwise — which is how CI proves a warm-start cache never survives a
// kill -9 incorrectly.
//
// With a comma-separated -base list the target is a lagraphd cluster:
// loadgen waits for every node's /readyz, round-robins the traffic over
// all of them (answers reached by following a 307 count), then waits
// for replication to converge (lagraphd_cluster_replication_lag 0 on
// every node) and re-runs every query against every node directly —
// each node must return the same checksum the mixed run produced,
// whichever member computed it.
//
// Usage:
//
//	loadgen -base http://127.0.0.1:8487 -scale 10 -queries 64 -parallel 8
//	loadgen -base ... -edges 32 -flush -checksums-out sums.json  # before kill -9
//	loadgen -base ... -no-load -checksums-in sums.json           # after restart
//	loadgen -base http://127.0.0.1:9001,http://127.0.0.1:9002,http://127.0.0.1:9003
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"lagraph/internal/svc"
)

type result struct {
	algo     string
	checksum string
	code     int
	err      error
}

func main() {
	base := flag.String("base", "http://127.0.0.1:8487", "daemon base URL, or a comma-separated list to target a cluster")
	scale := flag.Int("scale", 10, "generator scale for the test graph")
	queries := flag.Int("queries", 64, "total queries to fire")
	parallel := flag.Int("parallel", 8, "concurrent query workers")
	name := flag.String("name", "loadgen", "graph name to register")
	wait := flag.Duration("wait", 10*time.Second, "how long to wait for the daemon to come up")
	noLoad := flag.Bool("no-load", false, "skip loading: the graph must already exist (e.g. recovered from -data)")
	flush := flag.Bool("flush", false, "POST /v1/admin/flush after the query mix (daemon must run with -data)")
	sumsOut := flag.String("checksums-out", "", "write per-algorithm checksums to this JSON file")
	sumsIn := flag.String("checksums-in", "", "require per-algorithm checksums to match this JSON file")
	edges := flag.Int("edges", 0, "edge-mutation batches to interleave with the query mix (0 = none)")
	edgeBatch := flag.Int("edge-batch", 64, "tuples per edge batch")
	edgeOffset := flag.Int("edge-offset", 0, "offset added to batch indices, so successive runs ingest disjoint batches")
	dual := flag.Bool("dual", false, "run the dual-mode ingest→query pass (mode=full vs mode=incremental) against the mutation copy")
	dualRounds := flag.Int("dual-rounds", 3, "ingest→query rounds in the dual-mode pass")
	flag.Parse()

	var bases []string
	for _, b := range strings.Split(*base, ",") {
		if b = strings.TrimRight(strings.TrimSpace(b), "/"); b != "" {
			bases = append(bases, b)
		}
	}
	if len(bases) == 0 {
		fmt.Fprintln(os.Stderr, "loadgen: -base names no URLs")
		os.Exit(2)
	}
	opts := options{
		bases: bases, name: *name, scale: *scale, queries: *queries,
		parallel: *parallel, wait: *wait, noLoad: *noLoad, flush: *flush,
		sumsOut: *sumsOut, sumsIn: *sumsIn,
		edges: *edges, edgeBatch: *edgeBatch, edgeOffset: *edgeOffset,
		dual: *dual, dualRounds: *dualRounds,
	}
	if err := run(opts); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
	fmt.Println("loadgen: OK")
}

type options struct {
	bases           []string
	name            string
	scale           int
	queries         int
	parallel        int
	wait            time.Duration
	noLoad, flush   bool
	sumsOut, sumsIn string
	edges           int
	edgeBatch       int
	edgeOffset      int
	dual            bool
	dualRounds      int
}

func run(opts options) error {
	bases, name := opts.bases, opts.name
	base := bases[0]
	scale, queries, parallel, wait := opts.scale, opts.queries, opts.parallel, opts.wait
	client := &http.Client{Timeout: 2 * time.Minute}

	// 1. Wait for liveness, then readiness, on every target: /readyz stays
	// 503 while a daemon replays its snapshots+WAL or a cluster member is
	// still catching its replicas up, and traffic fired into that window
	// would measure the gate, not the service.
	deadline := time.Now().Add(wait)
	for _, b := range bases {
		for _, probe := range []string{"/healthz", "/readyz"} {
			for {
				resp, err := client.Get(b + probe)
				if err == nil {
					resp.Body.Close()
					if resp.StatusCode == 200 {
						break
					}
				}
				if time.Now().After(deadline) {
					return fmt.Errorf("%s not 200 on %s within %v: %v", probe, b, wait, err)
				}
				time.Sleep(200 * time.Millisecond)
			}
		}
	}

	// 2. Load a deterministic synthetic graph (replace, so reruns work).
	// With -no-load the graph must already be registered — the daemon is
	// expected to have recovered it from its durable store.
	if opts.noLoad {
		resp, err := client.Get(base + "/v1/graphs/" + name)
		if err != nil {
			return fmt.Errorf("info: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			return fmt.Errorf("-no-load: graph %q not present (status %d): recovery failed", name, resp.StatusCode)
		}
		fmt.Printf("loadgen: graph %q already present (recovered)\n", name)
	} else {
		load := map[string]any{
			"name": name, "undirected": true, "replace": true,
			"generator": map[string]any{"kind": "powerlaw", "scale": scale, "edge_factor": 8, "seed": 42},
		}
		code, body, err := postJSON(client, base+"/v1/graphs", load)
		if err != nil {
			return fmt.Errorf("load: %v", err)
		}
		if code/100 != 2 {
			return fmt.Errorf("load: status %d: %s", code, body)
		}
		if opts.edges > 0 || opts.dual {
			// Second copy for the mutation traffic (-edges batches, -dual
			// rounds), so it cannot perturb the main graph's determinism
			// checks.
			load["name"] = mutName(name)
			code, body, err := postJSON(client, base+"/v1/graphs", load)
			if err != nil {
				return fmt.Errorf("load mut: %v", err)
			}
			if code/100 != 2 {
				return fmt.Errorf("load mut: status %d: %s", code, body)
			}
		}
	}

	// 3. Fire the query mix concurrently; every request must be 2xx.
	// Queries round-robin over every base (against a cluster, the 307s
	// are part of what is under test); with -edges,
	// deterministic edge batches against the mutation copy are interleaved
	// into the same worker pool.
	n := 1 << opts.scale
	// The job queue is filled and closed up front (it is small — one int
	// per job), so the workers are plain drain-until-closed goroutines
	// and the spawner's wg.Wait() bounds their lifetime; no feeder
	// goroutine to leak if a worker dies early. Job i < queries is query
	// #i; job i >= queries is edge batch #(i-queries). Interleaving comes
	// from striding the edge jobs through the fill order.
	total := queries + opts.edges
	order := interleave(queries, opts.edges)
	jobs := make(chan int, total)
	for _, i := range order {
		jobs <- i
	}
	close(jobs)
	results := make(chan result, total)
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				target := bases[i%len(bases)]
				if i >= queries {
					b := i - queries
					r := result{algo: "edges"}
					code, body, err := postJSON(client,
						target+"/v1/graphs/"+mutName(name)+"/edges", edgeBatchBody(n, b+opts.edgeOffset, opts.edgeBatch))
					r.code, r.err = code, err
					if err == nil && code != 200 {
						r.err = fmt.Errorf("edge batch %d: status %d: %s", b, code, body)
						r.code = code
					}
					results <- r
					continue
				}
				q := queryMix[i%len(queryMix)]
				r := result{algo: q["algo"].(string)}
				code, body, err := postJSON(client, target+"/v1/graphs/"+name+"/query", q)
				r.code, r.err = code, err
				if err == nil && code == 200 {
					var qr struct {
						Checksum string `json:"checksum"`
					}
					if jerr := json.Unmarshal(body, &qr); jerr != nil {
						r.err = fmt.Errorf("bad query body: %v", jerr)
					}
					r.checksum = qr.Checksum
				}
				results <- r
			}
		}()
	}
	// results is buffered for every job, so the workers finish without a
	// concurrent reader and the loop below sees a closed, fully-drained
	// channel.
	wg.Wait()
	close(results)

	// Identical algo+params must give identical checksums: bitwise
	// determinism is part of the service contract.
	sums := map[string]string{}
	ok := 0
	for r := range results {
		if r.err != nil {
			return fmt.Errorf("query %s: %v", r.algo, r.err)
		}
		if r.code != 200 {
			return fmt.Errorf("query %s: status %d", r.algo, r.code)
		}
		if r.checksum != "" {
			if prev, seen := sums[r.algo]; seen && prev != r.checksum {
				return fmt.Errorf("query %s: nondeterministic checksum %s vs %s", r.algo, r.checksum, prev)
			}
			sums[r.algo] = r.checksum
		}
		ok++
	}
	fmt.Printf("loadgen: %d/%d requests OK across %d algorithms (+%d edge batches)\n",
		ok, total, len(queryMix), opts.edges)

	// Dual-mode pass: interleaved ingest→query rounds where every query
	// runs in both execution modes and the checksums must agree. It runs
	// BEFORE the mutation copy's reference state is recorded, because its
	// rounds ingest further (idempotent) batches.
	if opts.dual {
		incSums, err := dualModePass(client, bases, mutName(name), n, opts.dualRounds, opts.wait)
		if err != nil {
			return err
		}
		for k, v := range incSums {
			sums[k] = v
		}
	}

	// Post-ingest verification of the mutation copy: its final state is a
	// pure function of the batch set (batches are pairwise disjoint, and a
	// batch's removes target only its own adds), so these checksums are
	// deterministic and recoverable — they go into the sums file under
	// mut:* keys and must survive a kill -9 via snapshot + WAL replay.
	// The -no-load recovery run re-verifies whenever the daemon recovered
	// the mutation copy, without needing -edges itself.
	// Against a cluster, replication must converge BEFORE the mutation
	// copy's reference state is recorded: right after the ingest burst,
	// bases[0] may be a replica that has not applied the tail yet, and its
	// answer would record a stale "agreed" state.
	if len(bases) > 1 {
		if err := clusterConverge(client, bases, wait); err != nil {
			return err
		}
	}
	if mutSums, err := verifyMut(client, base, mutName(name)); err != nil {
		return err
	} else {
		for k, v := range mutSums {
			sums[k] = v
		}
	}

	// Cluster pass: every node must answer every query with the checksum
	// the mixed run produced — bitwise identity across members is the
	// whole point of shipping the WAL instead of re-running the generator.
	if len(bases) > 1 {
		if err := clusterIdentity(client, bases, name, sums); err != nil {
			return err
		}
	}

	// Cross-run determinism: compare against (or record for) another run,
	// typically across a daemon kill and recovery. Every recorded key must
	// be present — a key the recovery run cannot produce means a graph
	// was lost, which is exactly what this check exists to catch.
	if opts.sumsIn != "" {
		raw, err := os.ReadFile(opts.sumsIn)
		if err != nil {
			return fmt.Errorf("checksums-in: %v", err)
		}
		want := map[string]string{}
		if err := json.Unmarshal(raw, &want); err != nil {
			return fmt.Errorf("checksums-in: %v", err)
		}
		for algo, sum := range want {
			got, have := sums[algo]
			if !have {
				return fmt.Errorf("checksum missing after recovery: %s was %s, now absent", algo, sum)
			}
			if got != sum {
				return fmt.Errorf("checksum drift after recovery: %s was %s, now %s", algo, sum, got)
			}
		}
		fmt.Printf("loadgen: %d checksums identical to %s\n", len(want), opts.sumsIn)
	}
	if opts.sumsOut != "" {
		raw, err := json.MarshalIndent(sums, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(opts.sumsOut, raw, 0o644); err != nil {
			return fmt.Errorf("checksums-out: %v", err)
		}
		fmt.Printf("loadgen: wrote %d checksums to %s\n", len(sums), opts.sumsOut)
	}

	// Flush the durable stores so everything queried above is on disk
	// before the caller kills a daemon.
	if opts.flush {
		for _, b := range bases {
			code, body, err := postJSON(client, b+"/v1/admin/flush", nil)
			if err != nil {
				return fmt.Errorf("flush %s: %v", b, err)
			}
			if code != 200 {
				return fmt.Errorf("flush %s: status %d: %s", b, code, body)
			}
			fmt.Printf("loadgen: flushed %s: %s\n", b, bytes.TrimSpace(body))
		}
	}

	// 4. Validate /metrics on every node: well-formed Prometheus text with
	// the required families and coherent histograms.
	for _, b := range bases {
		resp, err := client.Get(b + "/metrics")
		if err != nil {
			return fmt.Errorf("metrics %s: %v", b, err)
		}
		err = svc.ValidateMetrics(resp.Body)
		code := resp.StatusCode
		resp.Body.Close()
		if code != 200 {
			return fmt.Errorf("metrics %s: status %d", b, code)
		}
		if err != nil {
			return fmt.Errorf("metrics %s: %v", b, err)
		}
	}
	fmt.Println("loadgen: /metrics validated")
	return nil
}

// queryMix is the algorithm set every run exercises; clusterVerify
// re-runs the same set per node so the checksums are comparable.
var queryMix = []map[string]any{
	{"algo": "bfs", "src": 0},
	{"algo": "parents", "src": 0},
	{"algo": "sssp", "src": 0},
	{"algo": "pagerank"},
	{"algo": "cc"},
	{"algo": "tc"},
}

// clusterConverge blocks until replication converged on every node (or
// the wait budget runs out).
//
// Convergence is judged across nodes, not per node: a replica's own lag
// metric reads 0 until its next poll observes the primary's new head, so
// right after an ingest burst a stale replica can look caught up to
// itself. Comparing every replica's journal position and generation
// against its primary's in the same round closes that window.
func clusterConverge(client *http.Client, bases []string, wait time.Duration) error {
	deadline := time.Now().Add(wait)
	for {
		lagging, err := clusterLagging(client, bases)
		if err == nil && lagging == "" {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replication did not converge within %v: %s (%v)", wait, lagging, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
	// With journals agreed, every node's own lag gauge must read 0 too —
	// this is the operator-facing signal CI greps for.
	for _, b := range bases {
		for {
			body, err := getBody(client, b+"/metrics")
			if err == nil &&
				strings.Contains(body, "\nlagraphd_cluster_replication_lag 0\n") &&
				strings.Contains(body, "\nlagraphd_cluster_ready 1\n") {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("replication lag gauge on %s did not reach 0 within %v", b, wait)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	return nil
}

// clusterIdentity queries every node for every recorded checksum and
// requires bitwise-identical answers — served locally on owners, routed
// on non-owners. The mutation copy's nedges/cc/tc (mut:* keys) are
// re-checked the same way when present.
func clusterIdentity(client *http.Client, bases []string, name string, sums map[string]string) error {
	checks := 0
	for _, b := range bases {
		for _, q := range queryMix {
			algo := q["algo"].(string)
			want, have := sums[algo]
			if !have {
				continue
			}
			code, body, err := postJSON(client, b+"/v1/graphs/"+name+"/query", q)
			if err != nil || code != 200 {
				return fmt.Errorf("cluster %s %s: status %d: %v %s", b, algo, code, err, body)
			}
			var qr struct {
				Checksum string `json:"checksum"`
				Cluster  struct {
					Role   string `json:"role"`
					LagLSN uint64 `json:"lag_lsn"`
				} `json:"cluster"`
			}
			if err := json.Unmarshal(body, &qr); err != nil {
				return fmt.Errorf("cluster %s %s: %v", b, algo, err)
			}
			if qr.Checksum != want {
				return fmt.Errorf("cluster divergence: %s answers %s with %s, cluster agreed on %s",
					b, algo, qr.Checksum, want)
			}
			if qr.Cluster.LagLSN != 0 {
				return fmt.Errorf("cluster %s %s: served with lag %d after convergence", b, algo, qr.Cluster.LagLSN)
			}
			checks++
		}
		if _, have := sums["mut:cc"]; have {
			mutSums, err := verifyMut(client, b, mutName(name))
			if err != nil {
				return fmt.Errorf("cluster %s: %v", b, err)
			}
			for _, k := range []string{"mut:nedges", "mut:cc", "mut:tc"} {
				if mutSums[k] != sums[k] {
					return fmt.Errorf("cluster divergence: %s answers %s with %s, cluster agreed on %s",
						b, k, mutSums[k], sums[k])
				}
			}
			checks += 3
		}
	}
	fmt.Printf("loadgen: cluster converged, %d checksums identical across %d nodes\n", checks, len(bases))
	return nil
}

// clusterLagging polls /v1/cluster/status on every base and reports the
// first replica whose journal position or generation disagrees with its
// primary's ("" = fully converged). A replica that has not discovered a
// graph yet lists nothing to compare, so every polled node a placement
// in /v1/cluster/topology names must hold the graph too. A replica whose
// primary is not among the polled bases cannot be judged and counts as
// lagging — the caller is expected to name every live node.
func clusterLagging(client *http.Client, bases []string) (string, error) {
	type graphPos struct {
		Name       string `json:"name"`
		Role       string `json:"role"`
		Generation uint64 `json:"generation"`
		Journal    uint64 `json:"journal"`
	}
	type status struct {
		Node   string     `json:"node"`
		Ready  bool       `json:"ready"`
		Graphs []graphPos `json:"graphs"`
	}
	primaries := map[string]graphPos{}
	held := map[string]map[string]bool{} // node ID → the graphs it lists
	type replica struct {
		base string
		g    graphPos
	}
	var replicas []replica
	for _, b := range bases {
		body, err := getBody(client, b+"/v1/cluster/status")
		if err != nil {
			return b + " unreachable", err
		}
		var st status
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			return b + " bad status", err
		}
		if !st.Ready {
			return b + " not ready", nil
		}
		held[st.Node] = map[string]bool{}
		for _, g := range st.Graphs {
			held[st.Node][g.Name] = true
			switch g.Role {
			case "primary":
				primaries[g.Name] = g
			case "replica":
				replicas = append(replicas, replica{base: b, g: g})
			}
		}
	}
	for _, b := range bases {
		body, err := getBody(client, b+"/v1/cluster/topology")
		if err != nil {
			return b + " unreachable", err
		}
		var top struct {
			Placements []struct {
				Name  string   `json:"name"`
				Nodes []string `json:"nodes"`
			} `json:"placements"`
		}
		if err := json.Unmarshal([]byte(body), &top); err != nil {
			return b + " bad topology", err
		}
		for _, p := range top.Placements {
			for _, id := range p.Nodes {
				if h, polled := held[id]; polled && !h[p.Name] {
					return fmt.Sprintf("node %s does not hold %q yet", id, p.Name), nil
				}
			}
		}
	}
	for _, r := range replicas {
		p, ok := primaries[r.g.Name]
		if !ok {
			return fmt.Sprintf("%s replicates %q but no polled node is its primary", r.base, r.g.Name), nil
		}
		if r.g.Journal != p.Journal || r.g.Generation != p.Generation {
			return fmt.Sprintf("%s lags on %q: journal %d gen %d, primary at %d gen %d",
				r.base, r.g.Name, r.g.Journal, r.g.Generation, p.Journal, p.Generation), nil
		}
	}
	return "", nil
}

// getBody fetches a URL and returns its body as a string (any status).
func getBody(client *http.Client, url string) (string, error) {
	resp, err := client.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

// mutName is the mutation copy's graph name.
func mutName(name string) string { return name + "-mut" }

// dualBatchBase offsets the dual-mode pass's batch indices far above the
// -edges burst so the two tuple ranges are disjoint. Indices are mapped
// to residues 0..2 mod 4 (edgeBatchBody makes every 4th batch remove),
// keeping every dual batch insert-only — the precondition for the exact
// warm starts it is exercising.
const dualBatchBase = 8000

// dualBatchLen is fixed rather than inherited from -edge-batch: the
// recovery run repeats the dual pass to prove checksum identity, and its
// batches are only idempotent if they are byte-for-byte the ones the
// pre-crash run ingested, whatever flags each invocation happened to
// use.
const dualBatchLen = 48

// dualQuery is one checksum-bearing query of the dual-mode pass.
type dualQuery struct {
	Checksum    string `json:"checksum"`
	Incremental *struct {
		ModeUsed       string `json:"mode_used"`
		FallbackReason string `json:"fallback_reason"`
		Verify         *struct {
			Equivalent bool `json:"equivalent"`
		} `json:"verify"`
	} `json:"incremental"`
}

// dualModePass proves mode equivalence over live traffic: each round
// primes the incremental cache with full-mode queries, ingests one
// deterministic insert-only batch, then reissues every query in both
// modes — cc and bfs must answer with bitwise-identical checksums, and
// pagerank goes through mode=verify so the daemon itself asserts the
// tolerance bound (a divergence is a 500, which fails the pass). Against
// a single node the warm start is also REQUIRED to engage (the prior was
// primed in the same round); against a cluster the round-robin may land
// a query on a node without a prior, where an honest fallback is
// legitimate and checksum identity is the whole contract. Returns the
// final checksums under inc:* keys.
func dualModePass(client *http.Client, bases []string, mut string, n, rounds int, wait time.Duration) (map[string]string, error) {
	requireWarm := len(bases) == 1
	queries := []map[string]any{
		{"algo": "cc"},
		{"algo": "bfs", "src": 0},
		{"algo": "pagerank"},
	}
	ask := func(target string, q map[string]any, mode string) (dualQuery, error) {
		body := map[string]any{"mode": mode}
		for k, v := range q {
			body[k] = v
		}
		code, raw, err := postJSON(client, target+"/v1/graphs/"+mut+"/query", body)
		if err != nil {
			return dualQuery{}, fmt.Errorf("dual %s mode=%s: %v", q["algo"], mode, err)
		}
		if code != 200 {
			return dualQuery{}, fmt.Errorf("dual %s mode=%s: status %d: %s", q["algo"], mode, code, raw)
		}
		var dq dualQuery
		if err := json.Unmarshal(raw, &dq); err != nil {
			return dualQuery{}, fmt.Errorf("dual %s mode=%s: %v", q["algo"], mode, err)
		}
		return dq, nil
	}
	sums := map[string]string{}
	rr := 0
	next := func() string { rr++; return bases[rr%len(bases)] }
	for r := 0; r < rounds; r++ {
		for _, q := range queries {
			if _, err := ask(next(), q, "full"); err != nil {
				return nil, err
			}
		}
		idx := dualBatchBase + (r/3)*4 + r%3
		code, raw, err := postJSON(client, next()+"/v1/graphs/"+mut+"/edges", edgeBatchBody(n, idx, dualBatchLen))
		if err != nil || code != 200 {
			return nil, fmt.Errorf("dual ingest round %d: status %d: %v %s", r, code, err, raw)
		}
		// Against a cluster, the next queries round-robin over every node:
		// wait for replication so the two modes are never compared across
		// nodes at different generations.
		if len(bases) > 1 {
			if err := clusterConverge(client, bases, wait); err != nil {
				return nil, fmt.Errorf("dual round %d: %v", r, err)
			}
		}
		for _, q := range queries {
			algo := q["algo"].(string)
			if algo == "pagerank" {
				vq, err := ask(next(), q, "verify")
				if err != nil {
					return nil, err
				}
				if vq.Incremental == nil || vq.Incremental.Verify == nil || !vq.Incremental.Verify.Equivalent {
					return nil, fmt.Errorf("dual pagerank round %d: verify did not report equivalence", r)
				}
				if requireWarm && vq.Incremental.ModeUsed != "incremental" {
					return nil, fmt.Errorf("dual pagerank round %d: expected a warm start, got mode_used=%s (%s)",
						r, vq.Incremental.ModeUsed, vq.Incremental.FallbackReason)
				}
				sums["inc:pagerank"] = vq.Checksum
				continue
			}
			inc, err := ask(next(), q, "incremental")
			if err != nil {
				return nil, err
			}
			full, err := ask(next(), q, "full")
			if err != nil {
				return nil, err
			}
			if inc.Checksum != full.Checksum {
				return nil, fmt.Errorf("dual %s round %d: incremental checksum %s != full %s",
					algo, r, inc.Checksum, full.Checksum)
			}
			if requireWarm && (inc.Incremental == nil || inc.Incremental.ModeUsed != "incremental") {
				reason := "missing incremental info"
				if inc.Incremental != nil {
					reason = inc.Incremental.FallbackReason
				}
				return nil, fmt.Errorf("dual %s round %d: expected a warm start, got fallback (%s)", algo, r, reason)
			}
			sums["inc:"+algo] = full.Checksum
		}
	}
	fmt.Printf("loadgen: dual-mode pass OK: %d rounds, full ≡ incremental for cc/bfs, pagerank verified in-bound\n", rounds)
	return sums, nil
}

// interleave returns job indices 0..queries+edges-1 with the edge jobs
// (indices >= queries) strided evenly through the query jobs, so edge
// ingestion and query traffic genuinely overlap in the worker pool.
func interleave(queries, edges int) []int {
	out := make([]int, 0, queries+edges)
	if edges == 0 {
		for i := 0; i < queries; i++ {
			out = append(out, i)
		}
		return out
	}
	stride := queries/edges + 1
	e := 0
	for i := 0; i < queries; i++ {
		out = append(out, i)
		if (i+1)%stride == 0 && e < edges {
			out = append(out, queries+e)
			e++
		}
	}
	for ; e < edges; e++ {
		out = append(out, queries+e)
	}
	return out
}

// edgeBatchBody builds deterministic edge batch #b for an n-vertex graph.
// Tuple m = b*size+k maps to a unique (src, dst) pair, so batches are
// pairwise disjoint and the final graph state does not depend on the
// order in which concurrent batches land. Every 4th batch also removes
// the first half of its own adds in the same batch (within-batch order is
// preserved by the ingest contract), exercising the remove path without
// introducing cross-batch ordering dependencies.
func edgeBatchBody(n, b, size int) map[string]any {
	type tuple = map[string]any
	mk := func(k int) (src, dst int, w float64) {
		m := b*size + k
		src = m % n
		dst = (m/n + src + 1) % n
		if dst == src {
			dst = (dst + 1) % n
		}
		return src, dst, float64(1 + m%7)
	}
	var edges []tuple
	for k := 0; k < size; k++ {
		src, dst, w := mk(k)
		edges = append(edges, tuple{"src": src, "dst": dst, "weight": w})
	}
	if b%4 == 3 {
		for k := 0; k < size/2; k++ {
			src, dst, _ := mk(k)
			edges = append(edges, tuple{"src": src, "dst": dst, "remove": true})
		}
	}
	return map[string]any{"edges": edges}
}

// verifyMut records the mutation copy's post-ingest state: structural
// edge count plus cc/tc checksums, keyed mut:*. A daemon that never saw
// the mutation copy (plain run without -edges, or a recovery where it was
// never created) contributes nothing.
func verifyMut(client *http.Client, base, mut string) (map[string]string, error) {
	resp, err := client.Get(base + "/v1/graphs/" + mut)
	if err != nil {
		return nil, fmt.Errorf("mut info: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == 404 {
		return nil, nil
	}
	if resp.StatusCode != 200 {
		return nil, fmt.Errorf("mut info: status %d", resp.StatusCode)
	}
	var info struct {
		NEdges int `json:"nedges"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return nil, fmt.Errorf("mut info: %v", err)
	}
	sums := map[string]string{"mut:nedges": fmt.Sprint(info.NEdges)}
	for _, algo := range []string{"cc", "tc"} {
		code, body, err := postJSON(client, base+"/v1/graphs/"+mut+"/query", map[string]any{"algo": algo})
		if err != nil {
			return nil, fmt.Errorf("mut %s: %v", algo, err)
		}
		if code != 200 {
			return nil, fmt.Errorf("mut %s: status %d: %s", algo, code, body)
		}
		var qr struct {
			Checksum string `json:"checksum"`
		}
		if err := json.Unmarshal(body, &qr); err != nil {
			return nil, fmt.Errorf("mut %s: %v", algo, err)
		}
		sums["mut:"+algo] = qr.Checksum
	}
	fmt.Printf("loadgen: mutation copy %q verified (%d stored entries)\n", mut, info.NEdges)
	return sums, nil
}

func postJSON(client *http.Client, url string, v any) (int, []byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return 0, nil, err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}
