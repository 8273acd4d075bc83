package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"lagraph/internal/cluster"
	"lagraph/internal/svc"
)

// daemonEnv makes TestMain run lagraphd's main instead of the tests, so
// TestSmoke's daemons are real processes of this binary: kill -9 is a
// real SIGKILL, and under -race the daemons are instrumented too.
const daemonEnv = "LAGRAPHD_TEST_DAEMON"

func TestMain(m *testing.M) {
	if os.Getenv(daemonEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// The query mix reads mainGraph; edge batches and the dual pass mutate
// mutGraph, so they cannot perturb the mix's determinism check. Both are
// power-law graphs of 1<<scale vertices.
const (
	mainGraph = "smoke"
	mutGraph  = "smoke-mut"
	scale     = 10
)

var queryMix = []string{"bfs", "parents", "sssp", "pagerank", "cc", "tc"}

// TestSmoke drives real lagraphd processes through each documented flow,
// one row per flow, each ending in a graceful stop. Each check is a named
// step; a row stops at its first failing step, and its daemons are killed
// whatever happens.
func TestSmoke(t *testing.T) {
	both := []string{mainGraph, mutGraph}
	rows := []struct {
		name   string
		nodes  int
		graphs []string
		flow   func(t *testing.T, s *scenario)
	}{
		{"roundtrip", 1, both, roundTrip},
		{"kill9_restart", 1, []string{mainGraph}, killRestart},
		{"kill9_torn_wal_tail", 1, both, tornTail},
		{"cluster_replica_killed", 3, both, replicaKilled},
		{"cluster_primary_killed", 3, []string{mutGraph}, primaryKilled},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			s := newScenario(t, row.nodes, row.graphs)
			row.flow(t, s)
			step(t, "sigterm_exits_0_after_final_flush", s.stopAll)
		})
	}
}

func roundTrip(t *testing.T, s *scenario) {
	s.mix(t, s.nodes, 48, 0, 8)
	step(t, "warm_start_engages_and_verify_reports_equivalence", s.dual)
	step(t, "metrics_validate", func(t *testing.T) { s.metric(t, "lagraphd_graphs", s.nodes...) })
}

func killRestart(t *testing.T, s *scenario) {
	s.mix(t, s.nodes, 24, 0, 0)
	s.flush(t)
	s.record(t)
	s.nodes[0].kill()
	s.start(t, s.nodes[0])
	step(t, "checksums_identical_after_kill9_restart_from_snapshots", s.identical)
}

func tornTail(t *testing.T, s *scenario) {
	d := s.nodes[0]
	s.flush(t) // the snapshots pin the WAL floor below every batch that follows
	s.mix(t, s.nodes, 16, 0, 8)
	step(t, "warm_start_engages_and_verify_reports_equivalence", s.dual)
	s.record(t)
	inc := s.inc
	d.kill()
	segs, _ := filepath.Glob(filepath.Join(d.dir, "data", "wal", "wal-*.seg"))
	f, err := os.OpenFile(slices.Max(segs), os.O_APPEND|os.O_WRONLY, 0) // the last segment
	must(t, err)
	_, err = f.Write(bytes.Repeat([]byte{0xA5}, 17)) // a crash mid-append
	must(t, errors.Join(err, f.Close()))
	s.start(t, d)
	step(t, "torn_tail_and_replay_logged", func(t *testing.T) {
		for _, line := range []string{"torn tail", "wal: replayed"} {
			if !strings.Contains(d.logText(), line) {
				t.Errorf("restart log lacks %q", line)
			}
		}
	})
	step(t, "checksums_identical_after_kill9_and_torn_tail", s.identical)
	step(t, "dual_pass_reproduces_its_checksums_after_restart", func(t *testing.T) {
		if s.dual(t); !maps.Equal(s.inc, inc) {
			t.Errorf("dual-pass checksums %v after restart, %v before", s.inc, inc)
		}
	})
}

func replicaKilled(t *testing.T, s *scenario) {
	s.mix(t, s.nodes, 48, 0, 24)
	step(t, "dual_pass_checksums_identical_across_nodes", s.dual)
	step(t, "replication_converges", func(t *testing.T) { s.converge(t, s.nodes) })
	s.record(t)
	step(t, "identical_checksums_on_every_node_with_lag_0", s.identical)
	step(t, "redirects_counted", func(t *testing.T) {
		if s.metric(t, "lagraphd_cluster_redirects_total", s.nodes...) == 0 {
			t.Error("no node counted a redirect")
		}
	})
	step(t, "metrics_validate", func(t *testing.T) { s.metric(t, "lagraphd_graphs", s.nodes...) })
	s.flush(t)
	_, r := s.holders(t, mutGraph)
	r.kill()
	step(t, "writes_keep_flowing_while_a_replica_is_dead", func(t *testing.T) {
		s.mix(t, s.except(r), 0, 2000, 16)
		s.converge(t, s.except(r))
	})
	s.start(t, r)
	step(t, "restarted_replica_catches_up_over_the_record_stream", func(t *testing.T) {
		s.converge(t, s.nodes)
		records, snapshots := s.metric(t, "lagraphd_cluster_fetched_records_total", r), s.metric(t, "lagraphd_cluster_fetched_snapshots_total", r)
		if lag := s.metric(t, "lagraphd_cluster_replication_lag", r); records == 0 || snapshots != 0 || lag != 0 {
			t.Errorf("the restarted replica fetched %d records and %d snapshots, lag %d; want records, no snapshot, lag 0",
				records, snapshots, lag)
		}
	})
	s.record(t)
	step(t, "identical_checksums_on_every_node_after_restart", s.identical)
}

// primaryKilled is DESIGN.md's "primary killed" row: the graph turns
// write-unavailable, its replica keeps serving reads at the last applied
// LSN, and restarting the primary converges the cluster again.
func primaryKilled(t *testing.T, s *scenario) {
	s.mix(t, s.nodes, 0, 0, 8)
	s.converge(t, s.nodes)
	s.record(t)
	p, r := s.holders(t, mutGraph)
	p.kill()
	step(t, "replica_answers_reads_with_pre_kill_checksums", func(t *testing.T) {
		if got := s.answers(t, r); !maps.Equal(got, s.sums) {
			t.Errorf("replica %s answers %v, %v before the kill", r.id, got, s.sums)
		}
	})
	step(t, "write_to_a_survivor_answers_307_to_the_dead_primary", func(t *testing.T) {
		noFollow := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }}
		defer noFollow.CloseIdleConnections()
		for _, d := range s.except(p) {
			resp, err := noFollow.Post(d.url+"/v1/graphs/"+mutGraph+"/edges", "application/json", strings.NewReader(`{"edges":[]}`))
			must(t, err)
			resp.Body.Close()
			if loc := resp.Header.Get("Location"); resp.StatusCode != http.StatusTemporaryRedirect || !strings.HasPrefix(loc, p.url+"/") {
				t.Errorf("write to %s: status %d, Location %q; want 307 to %s", d.id, resp.StatusCode, loc, p.url)
			}
		}
	})
	s.start(t, p)
	step(t, "nodes_converge_to_identical_checksums_after_restart", func(t *testing.T) {
		s.mix(t, s.nodes, 0, 8, 4)
		s.converge(t, s.nodes)
		s.record(t)
		s.identical(t)
	})
}

// step runs one named check of a flow and ends the flow if it fails.
func step(t *testing.T, name string, check func(t *testing.T)) {
	t.Helper()
	if !t.Run(name, check) {
		t.FailNow()
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// scenario is one row's nodes and what its steps carry forward.
type scenario struct {
	nodes    []*daemon
	peers    string // the -peers list, when nodes are a cluster
	client   *http.Client
	deadline time.Time // of every wait and retry in the row
	graphs   []string
	sums     map[string]string // the recorded answers (see answers)
	inc      map[string]string // the dual pass's last checksum per algorithm
}

// daemon is one node: each boot is a new process on the same address.
type daemon struct {
	id, url, dir string
	cmd          *exec.Cmd // the current boot
}

// newScenario boots n nodes and loads the graphs through the first; in a
// cluster each lands on its ring primary. mutGraph has one edge per
// vertex, not eight, so batches merge its many components: a warm CC that
// kept its prior labels would answer wrong.
func newScenario(t *testing.T, n int, graphs []string) *scenario {
	s := &scenario{client: &http.Client{Timeout: time.Minute}, deadline: time.Now().Add(60 * time.Second), graphs: graphs}
	var peers []string
	for i := range n {
		l, err := net.Listen("tcp", "127.0.0.1:0") // for a free port
		must(t, err)
		d := &daemon{id: string(rune('a' + i)), dir: t.TempDir(), url: "http://" + l.Addr().String()}
		l.Close()
		s.nodes, peers = append(s.nodes, d), append(peers, d.id+"="+d.url)
	}
	s.peers = strings.Join(peers, ",")
	t.Cleanup(func() {
		for _, d := range s.nodes {
			if d.kill(); t.Failed() {
				t.Logf("node %q log:\n%s", d.id, d.logText())
			}
		}
		s.client.CloseIdleConnections()
	})
	s.start(t, s.nodes...)
	for _, name := range graphs {
		edgeFactor := map[string]int{mainGraph: 8, mutGraph: 1}[name]
		must(t, s.call(s.nodes[0].url+"/v1/graphs", map[string]any{"name": name, "undirected": true,
			"generator": map[string]any{"kind": "powerlaw", "scale": scale, "edge_factor": edgeFactor, "seed": 42}}, nil))
	}
	return s
}

// start boots each daemon, then waits for every /readyz: 503 while a
// node replays its data, or catches replicas up from peers also booting.
func (s *scenario) start(t *testing.T, ds ...*daemon) {
	for _, d := range ds {
		args := []string{"-addr", strings.TrimPrefix(d.url, "http://"), "-workers", "4", "-data", filepath.Join(d.dir, "data")}
		if len(s.nodes) == 1 {
			args = append(args, "-snapshot-interval", "0")
		} else {
			args = append(args, "-snapshot-interval", "2s", "-node-id", d.id, "-peers", s.peers, "-replicas", "1", "-cluster-poll", "100ms")
		}
		log, err := os.OpenFile(filepath.Join(d.dir, "log"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		must(t, err)
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), daemonEnv+"=1")
		cmd.Stdout, cmd.Stderr = log, log
		err = cmd.Start()
		must(t, errors.Join(err, log.Close()))
		d.cmd = cmd
	}
	for _, d := range ds {
		s.await(t, func() error { return s.call(d.url+"/readyz", nil, nil) })
	}
}

// kill is kill -9; it returns once the process is gone.
func (d *daemon) kill() {
	if d.cmd != nil && d.cmd.ProcessState == nil {
		d.cmd.Process.Kill()
		d.cmd.Wait()
	}
}

func (d *daemon) logText() string {
	raw, _ := os.ReadFile(filepath.Join(d.dir, "log"))
	return string(raw)
}

// await retries f until it succeeds or the row's deadline passes.
func (s *scenario) await(t *testing.T, f func() error) {
	for err := f(); err != nil; err = f() {
		if time.Now().After(s.deadline) {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// call GETs url, or POSTs body to it, and fails unless the answer is
// 2xx; out (a *string or a JSON destination) receives the body. Until the
// row's deadline it retries what the error envelope marks retryable, as
// the API documents: a 503 not_ready during a replica install, a 429.
func (s *scenario) call(url string, body, out any) error {
	method, raw := "GET", []byte(nil)
	if body != nil {
		method = "POST"
		raw, _ = json.Marshal(body)
	}
	for {
		req, err := http.NewRequest(method, url, bytes.NewReader(raw))
		if err != nil {
			return err
		}
		resp, err := s.client.Do(req)
		if err != nil {
			return err
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		text, isText := out.(*string)
		if isText {
			*text = string(got)
		}
		var env struct{ Error svc.ErrorInfo }
		switch {
		case err != nil || resp.StatusCode/100 == 2 && (out == nil || isText):
			return err
		case resp.StatusCode/100 == 2:
			return json.Unmarshal(got, out)
		case json.Unmarshal(got, &env) != nil || !env.Error.Retryable || time.Now().After(s.deadline):
			return fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, got)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// mix runs queries (query i is queryMix[i%6] on mainGraph) on six workers
// while two ingest batches first.. into mutGraph, round-robin over nodes.
// Its steps: every request answers 2xx; one query gives one checksum.
func (s *scenario) mix(t *testing.T, nodes []*daemon, queries, first, batches int) {
	sums := map[string][]string{}
	step(t, "every_request_answers_2xx", func(t *testing.T) {
		var wg sync.WaitGroup
		var mu sync.Mutex
		var errs []error
		for w := range 8 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := w; w < 6 && i < queries; i += 6 {
					var qr svc.QueryResponse
					algo := queryMix[i%len(queryMix)]
					err := s.call(nodes[i%len(nodes)].url+"/v1/graphs/"+mainGraph+"/query", map[string]any{"algo": algo, "src": 0}, &qr)
					mu.Lock()
					errs, sums[algo] = append(errs, err), append(sums[algo], qr.Checksum)
					mu.Unlock()
				}
				for b := w - 6; b >= 0 && b < batches; b += 2 {
					err := s.call(nodes[b%len(nodes)].url+"/v1/graphs/"+mutGraph+"/edges", edgeBatch(1<<scale, first+b, 32), nil)
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		must(t, errors.Join(errs...))
	})
	if queries > 0 {
		step(t, "same_query_same_checksum_under_concurrency", func(t *testing.T) {
			for algo, got := range sums {
				if distinct := slices.Compact(slices.Sorted(slices.Values(got))); len(distinct) != 1 || distinct[0] == "" {
					t.Errorf("%s answered with checksums %v", algo, distinct)
				}
			}
		})
	}
}

// edgeBatch builds batch b of an n-vertex graph. Tuple m is its own
// (src, dst) pair, so batches land in any order to the same graph. Every
// fourth batch also removes the first half of its own adds.
func edgeBatch(n, b, size int) map[string]any {
	var edges []map[string]any
	for m := b * size; m < (b+1)*size; m++ {
		src, dst := m%n, (m/n+m%n+1)%n
		if dst == src {
			dst = (dst + 1) % n
		}
		edges = append(edges, map[string]any{"src": src, "dst": dst, "weight": 1 + m%7})
	}
	if b%4 == 3 {
		for _, e := range edges[:size/2] {
			edges = append(edges, map[string]any{"src": e["src"], "dst": e["dst"], "remove": true})
		}
	}
	return map[string]any{"edges": edges}
}

// dual runs three ingest → query rounds on mutGraph whose cc, bfs and
// pagerank queries are mode=verify: the server runs warm and full, fails
// unless they agree, and answers the full checksum, which every node must
// share; a single node, primed first, must warm-start. The batches are
// insert-only and idempotent, so a repeated pass reproduces s.inc; they
// join vertices 768..911, which earlier batches leave alone, to the rest.
func (s *scenario) dual(t *testing.T) {
	single, algos := len(s.nodes) == 1, []string{"cc", "bfs", "pagerank"}
	query := func(d *daemon, algo, mode string) (qr svc.QueryResponse) {
		must(t, s.call(d.url+"/v1/graphs/"+mutGraph+"/query", map[string]any{"algo": algo, "src": 0, "mode": mode}, &qr))
		return qr
	}
	for i := 0; single && i < len(algos); i++ {
		query(s.nodes[0], algos[i], "full")
	}
	s.inc = map[string]string{}
	for r := range 3 {
		must(t, s.call(s.nodes[r%len(s.nodes)].url+"/v1/graphs/"+mutGraph+"/edges", edgeBatch(1<<scale, 8016+r, 48), nil))
		if !single {
			s.converge(t, s.nodes)
		}
		for _, algo := range algos {
			for i, d := range s.nodes {
				qr := query(d, algo, "verify")
				if inc := qr.Incremental; single && (inc == nil || inc.ModeUsed != "incremental" || inc.Verify == nil || !inc.Verify.Equivalent) {
					t.Fatalf("round %d: %s verify answered %+v; want a warm start reported equivalent", r, algo, inc)
				}
				if i > 0 && qr.Checksum != s.inc[algo] {
					t.Fatalf("round %d: %s checksum %s on %s, %s on %s", r, algo, qr.Checksum, d.id, s.inc[algo], s.nodes[0].id)
				}
				s.inc[algo] = qr.Checksum
			}
		}
	}
}

// answers queries d for every key a row records: each algorithm of the
// query mix on mainGraph, and mutGraph's stored entry count and cc and
// tc checksums (mut:*). In a cluster every answer must come with lag 0.
func (s *scenario) answers(t *testing.T, d *daemon) map[string]string {
	out := map[string]string{}
	ask := func(key, graph, algo string) {
		var qr svc.QueryResponse
		must(t, s.call(d.url+"/v1/graphs/"+graph+"/query", map[string]any{"algo": algo, "src": 0}, &qr))
		if qr.Cluster != nil && qr.Cluster.LagLSN != 0 {
			t.Errorf("%s answered %s with lag_lsn %d", d.id, key, qr.Cluster.LagLSN)
		}
		out[key] = qr.Checksum
	}
	if slices.Contains(s.graphs, mainGraph) {
		for _, algo := range queryMix {
			ask(algo, mainGraph, algo)
		}
	}
	if slices.Contains(s.graphs, mutGraph) {
		var info struct{ NEdges int }
		must(t, s.call(d.url+"/v1/graphs/"+mutGraph, nil, &info))
		out["mut:nedges"] = strconv.Itoa(info.NEdges)
		ask("mut:cc", mutGraph, "cc")
		ask("mut:tc", mutGraph, "tc")
	}
	return out
}

// record takes the first node's answers as the row's reference.
func (s *scenario) record(t *testing.T) { s.sums = s.answers(t, s.nodes[0]) }

// identical requires every node to give the recorded answers.
func (s *scenario) identical(t *testing.T) {
	for _, d := range s.nodes {
		if got := s.answers(t, d); !maps.Equal(got, s.sums) {
			t.Errorf("node %q answers %v, recorded %v", d.id, got, s.sums)
		}
	}
}

func (s *scenario) flush(t *testing.T) {
	for _, d := range s.nodes {
		must(t, s.call(d.url+"/v1/admin/flush", struct{}{}, nil))
	}
}

// metric sums the named unlabelled integer sample over the nodes'
// /metrics, each of which must pass svc.ValidateMetrics.
func (s *scenario) metric(t *testing.T, name string, nodes ...*daemon) (sum int) {
	for _, d := range nodes {
		var m string
		must(t, s.call(d.url+"/metrics", nil, &m))
		must(t, svc.ValidateMetrics(strings.NewReader(m)))
		_, v, _ := strings.Cut(m, "\n"+name+" ")
		n, err := strconv.Atoi(strings.SplitN(v, "\n", 2)[0])
		must(t, err)
		sum += n
	}
	return sum
}

// converge waits until every node is ready, its lag gauge 0, holding each
// graph its placement names, and all holders of a graph agree on journal
// and generation (a replica's gauge reads 0 until it next polls).
func (s *scenario) converge(t *testing.T, nodes []*daemon) {
	type position struct {
		Name                string
		Generation, Journal uint64
	}
	s.await(t, func() error {
		seen, held := map[string]position{}, map[string]bool{} // held: "id" polled, "id/graph" listed
		var placements []cluster.Placement
		for _, d := range nodes {
			var st struct{ Graphs []position }
			var top struct{ Placements []cluster.Placement }
			var m string
			if err := errors.Join(s.call(d.url+"/v1/cluster/status", nil, &st), s.call(d.url+"/v1/cluster/topology", nil, &top),
				s.call(d.url+"/metrics", nil, &m)); err != nil {
				return err
			}
			if !strings.Contains(m, "\nlagraphd_cluster_replication_lag 0\n") || !strings.Contains(m, "\nlagraphd_cluster_ready 1\n") {
				return fmt.Errorf("node %q is not ready, or its lag gauge is not 0", d.id)
			}
			held[d.id], placements = true, append(placements, top.Placements...)
			for _, g := range st.Graphs {
				if p, ok := seen[g.Name]; ok && p != g {
					return fmt.Errorf("holders of %q disagree: journal %d gen %d, and %d gen %d", g.Name, p.Journal, p.Generation, g.Journal, g.Generation)
				}
				seen[g.Name], held[d.id+"/"+g.Name] = g, true
			}
		}
		for _, p := range placements {
			for _, id := range p.Nodes {
				if held[id] && !held[id+"/"+p.Name] {
					return fmt.Errorf("node %q does not hold %q yet", id, p.Name)
				}
			}
		}
		return nil
	})
}

// holders returns name's primary and replica, by /v1/graphs placements.
func (s *scenario) holders(t *testing.T, name string) (primary, replica *daemon) {
	byRole := map[string]*daemon{}
	for _, d := range s.nodes {
		var list struct{ Placements []struct{ Name, Role string } }
		must(t, s.call(d.url+"/v1/graphs", nil, &list))
		for _, p := range list.Placements {
			if p.Name == name {
				byRole[p.Role] = d
			}
		}
	}
	if byRole["primary"] == nil || byRole["replica"] == nil {
		t.Fatalf("placements name no primary and replica of %q", name)
	}
	return byRole["primary"], byRole["replica"]
}

func (s *scenario) except(gone *daemon) []*daemon {
	return slices.DeleteFunc(slices.Clone(s.nodes), func(d *daemon) bool { return d == gone })
}

// stopAll requires every node to exit 0 on SIGTERM after a final flush,
// within 2 s although each holds a connection that never sent a request
// (Shutdown alone would wait 5 s for it).
func (s *scenario) stopAll(t *testing.T) {
	for _, d := range s.nodes {
		c, err := net.Dial("tcp", strings.TrimPrefix(d.url, "http://"))
		must(t, err)
		defer c.Close()
	}
	signalled := time.Now()
	for _, d := range s.nodes {
		d.cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, d := range s.nodes {
		hung := time.AfterFunc(time.Until(s.deadline), func() { d.cmd.Process.Kill() })
		err := d.cmd.Wait()
		if hung.Stop(); err != nil || !strings.Contains(d.logText(), "lagraphd: final flush:") {
			t.Errorf("node %q stopped with %v; want exit status 0 after a logged final flush", d.id, err)
		}
		if took := time.Since(signalled); took > 2*time.Second {
			t.Errorf("node %q took %v to stop, want at most 2s", d.id, took)
		}
	}
}
