package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lagraph/internal/gen"
	"lagraph/internal/mmio"
	"lagraph/internal/store"
	"lagraph/internal/svc"
)

// tally counts the ops a run attempted and the ones that failed, and keeps
// the first few failure messages for the report.
type tally struct {
	attempted, failed, rejected atomic.Int64

	mu       sync.Mutex
	messages []string
}

// check records one attempted op and, when ok is false, a failure.
func (t *tally) check(ok bool, format string, a ...any) {
	t.attempted.Add(1)
	if ok {
		return
	}
	t.failed.Add(1)
	t.mu.Lock()
	if len(t.messages) < 10 {
		t.messages = append(t.messages, fmt.Sprintf(format, a...))
	}
	t.mu.Unlock()
}

// conn is one keep-alive connection to a daemon: a client of its own, so two
// conns are exactly two sockets.
type conn struct {
	base string
	hc   *http.Client
}

func newConn(base string) *conn {
	return &conn{base: base, hc: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole response; done is taken after
// the last response byte.
func (c *conn) do(method, path string, body []byte) (status int, resp []byte, done time.Time, err error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, time.Now(), err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	r, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, time.Now(), err
	}
	resp, err = io.ReadAll(r.Body)
	done = time.Now()
	r.Body.Close()
	return r.StatusCode, resp, done, err
}

// loadGraph posts an edge list to the daemon as inline Matrix Market text.
func (c *conn) loadGraph(name string, el *gen.EdgeList) error {
	var text strings.Builder
	if err := mmio.WriteMatrix(&text, el.Matrix()); err != nil {
		return err
	}
	body, err := json.Marshal(svc.LoadRequest{Name: name, Undirected: true, MMIO: text.String()})
	if err != nil {
		return err
	}
	status, resp, _, err := c.do(http.MethodPost, "/v1/graphs", body)
	if err != nil {
		return err
	}
	if status != http.StatusCreated {
		return fmt.Errorf("load %s: status %d: %s", name, status, resp)
	}
	return nil
}

// query is one pre-encoded read request.
type query struct {
	algo string
	src  int
	body []byte
}

func newQuery(algo string, src int) query {
	body, err := json.Marshal(svc.QueryRequest{Algo: algo, Src: src})
	if err != nil {
		panic(err) // a struct of strings and ints always marshals
	}
	return query{algo: algo, src: src, body: body}
}

// mixBlock is the read mix as one block of twenty questions: bfs 14, parents
// 4, pagerank 1, cc 1 (70/20/5/5 %). Every segment sends whole blocks, so
// every segment holds the same questions in the same proportions: a PageRank
// costs ten searches, and a segment that happened to draw fewer of them
// would be faster by luck.
var mixBlock = [20]string{
	"bfs", "bfs", "bfs", "bfs", "bfs", "bfs", "bfs", "bfs", "bfs", "bfs", "bfs", "bfs", "bfs", "bfs",
	"parents", "parents", "parents", "parents", "pagerank", "cc",
}

// readMix draws a query sequence of whole mixBlocks: the order inside a block
// and every traversal's source come from rng.
func readMix(rng *rand.Rand, sources []int, blocks int) []query {
	seq := make([]query, 0, blocks*len(mixBlock))
	for b := 0; b < blocks; b++ {
		for _, i := range rng.Perm(len(mixBlock)) {
			src := 0 // pagerank and cc take no source
			if algo := mixBlock[i]; algo == "bfs" || algo == "parents" {
				src = sources[rng.Intn(len(sources))]
			}
			seq = append(seq, newQuery(mixBlock[i], src))
		}
	}
	return seq
}

// checksums enforces the service's determinism contract across a whole run:
// equal (graph, algo, source, generation) must give equal checksums.
type checksums struct {
	mu   sync.Mutex
	seen map[string]string
}

func (cs *checksums) consistent(graph string, q query, generation uint64, sum string) bool {
	key := graph + "|" + q.algo + "|" + strconv.Itoa(q.src) + "|" + strconv.FormatUint(generation, 10)
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.seen == nil {
		cs.seen = map[string]string{}
	}
	if prev, ok := cs.seen[key]; ok {
		return prev == sum
	}
	cs.seen[key] = sum
	return true
}

// runQuery sends q and checks the answer: 200, a checksum, and the same
// checksum as every earlier answer to the same question. It returns when the
// last response byte arrived.
func (c *conn) runQuery(graph string, q query, cs *checksums, t *tally) (time.Time, *svc.QueryResponse) {
	status, resp, done, err := c.do(http.MethodPost, "/v1/graphs/"+graph+"/query", q.body)
	if status == http.StatusTooManyRequests {
		t.rejected.Add(1)
	}
	if err != nil || status != http.StatusOK {
		t.check(false, "query %s src %d: status %d err %v: %.200s", q.algo, q.src, status, err, resp)
		return done, nil
	}
	var qr svc.QueryResponse
	if err := json.Unmarshal(resp, &qr); err != nil || qr.Checksum == "" {
		t.check(false, "query %s src %d: bad response (%v): %.200s", q.algo, q.src, err, resp)
		return done, nil
	}
	t.check(cs.consistent(graph, q, qr.Generation, qr.Checksum),
		"query %s src %d generation %d: checksum %s differs from an earlier answer", q.algo, q.src, qr.Generation, qr.Checksum)
	return done, &qr
}

// tuplesPerBatch is the size of every written batch.
const tuplesPerBatch = 64

// edgeBatches draws n batches of tuplesPerBatch upserts. Every tuple re-weights an edge
// the graph already has, so the graph neither grows nor changes shape while
// it is written to: a read costs the same after the first batch as after
// the last, and recovery rebuilds a graph of the size it started with.
func edgeBatches(rng *rand.Rand, graph string, el *gen.EdgeList, n int) []store.EdgeBatch {
	out := make([]store.EdgeBatch, n)
	for i := range out {
		ops := make([]store.EdgeOp, tuplesPerBatch)
		for k := range ops {
			e := rng.Intn(len(el.Src))
			ops[k] = store.EdgeOp{Src: el.Src[e], Dst: el.Dst[e], Weight: float64(1 + rng.Intn(10))}
		}
		out[i] = store.EdgeBatch{Name: graph, Ops: ops}
	}
	return out
}

// batchBody encodes a batch as the POST /v1/graphs/{name}/edges body.
func batchBody(b store.EdgeBatch) []byte {
	req := svc.EdgesRequest{Edges: make([]svc.EdgeTuple, len(b.Ops))}
	for k, op := range b.Ops {
		req.Edges[k] = svc.EdgeTuple{Src: op.Src, Dst: op.Dst, Weight: &b.Ops[k].Weight}
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // ints and finite floats always marshal
	}
	return body
}

// postBatch writes one batch and checks the durable acknowledgement.
func (c *conn) postBatch(graph string, body []byte, t *tally) time.Time {
	status, resp, done, err := c.do(http.MethodPost, "/v1/graphs/"+graph+"/edges", body)
	if status == http.StatusTooManyRequests {
		t.rejected.Add(1)
	}
	var er svc.EdgesResponse
	ok := err == nil && status == http.StatusOK && json.Unmarshal(resp, &er) == nil && er.Durable && er.Accepted == tuplesPerBatch
	t.check(ok, "edge batch: status %d err %v durable %v: %.200s", status, err, er.Durable, resp)
	return done
}

// metricsText fetches /metrics.
func (c *conn) metricsText() (string, error) {
	status, resp, _, err := c.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return "", err
	}
	if status != http.StatusOK {
		return "", fmt.Errorf("/metrics: status %d", status)
	}
	return string(resp), nil
}

// metricValue finds one sample (name with its label set, exactly as
// rendered) in a /metrics payload; absent samples read as 0, the value a
// volatile daemon's missing wal/store families stand for.
func metricValue(text, sample string) float64 {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, sample+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err == nil {
				return v
			}
		}
	}
	return 0
}
