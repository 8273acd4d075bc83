package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"lagraph/internal/catalog"
)

// connections is how many keep-alive sockets load arrives on: one per core
// of the 2-core box the bounds were measured on, leaving the daemon its own
// share of both.
const connections = 2

// epoch anchors the harness's monotonic nanosecond clock.
var epoch = time.Now()

func nowNS() int64             { return int64(time.Since(epoch)) }
func nsOf(t time.Time) int64   { return int64(t.Sub(epoch)) }
func msOfNS(ns int64) float64  { return float64(ns) / 1e6 }
func seconds(ns int64) float64 { return float64(ns) / 1e9 }

// sleepUntilNS blocks until the harness clock reads due. It sleeps in the
// kernel (nanosleep) and not in the Go runtime: time.Sleep wakes through the
// netpoller, whose timeouts are whole milliseconds — measured here, a 500 µs
// time.Sleep returns 620 µs late, nanosleep 85 µs late — and a generator that
// is 0.6 ms late on a 1 ms request measures itself.
func sleepUntilNS(due int64) {
	for left := due - nowNS(); left > 0; left = due - nowNS() {
		ts := syscall.NsecToTimespec(left)
		syscall.Nanosleep(&ts, nil) // EINTR (the runtime's preemption signal): go round again
	}
}

func dial(base string) []*conn {
	conns := make([]*conn, connections)
	for i := range conns {
		conns[i] = newConn(base)
	}
	return conns
}

// readPhase is the read-only traffic against the volatile daemon, in
// alternating segments: a closed-loop one, then an open-loop one. read_qps
// is the median closed-loop throughput of the segments and read_p50_ms the
// median over every open-loop sample.
type readPhase struct {
	conns  []*conn
	seq    []query
	offset int
	rate   float64
	cs     *checksums
	t      *tally
	before string // /metrics when the phase began

	qps      []float64 // one per closed-loop segment
	openMS   []float64 // every open-loop latency, from due time to last byte
	lagMS    []float64 // how late the open-loop generator sent each request
	closedMS []float64 // closed-loop latency (not a metric: it hides queueing)
}

func newReadPhase(d *daemon, seq []query, rate float64, cs *checksums, t *tally) (*readPhase, error) {
	p := &readPhase{conns: dial(d.base), seq: seq, rate: rate, cs: cs, t: t}
	var err error
	p.before, err = p.conns[0].metricsText()
	return p, err
}

func (p *readPhase) close() {
	for _, c := range p.conns {
		c.close()
	}
}

// segmentPair runs one closed-loop segment of closedN requests and one
// open-loop segment of openN. Both counts are whole mixBlocks.
func (p *readPhase) segmentPair(closedN, openN int) {
	wallNS, lat := closedSegment(p.conns, readGraph, p.seq, p.offset, closedN, p.cs, p.t)
	p.offset += closedN
	p.qps = append(p.qps, float64(closedN)/seconds(wallNS))
	p.closedMS = append(p.closedMS, lat...)

	lat, lag := openSegment(p.conns, readGraph, p.seq, p.offset, openN, p.rate, p.cs, p.t)
	p.offset += openN
	p.openMS = append(p.openMS, lat...)
	p.lagMS = append(p.lagMS, lag...)
}

// readCounters are the volatile daemon's /metrics deltas over the phase.
type readCounters struct {
	serverMS              float64 // mean server-side time per query
	views, warms, updates float64
	walAppends            float64 // must stay 0: reads touch neither wal nor store
	storeSnapshots        float64
}

func (p *readPhase) counters() (readCounters, error) {
	var rc readCounters
	after, err := p.conns[0].metricsText()
	if err != nil {
		return rc, err
	}
	delta := func(sample string) float64 { return metricValue(after, sample) - metricValue(p.before, sample) }
	if n := delta(`lagraphd_http_request_seconds_count{endpoint="query"}`); n > 0 {
		rc.serverMS = delta(`lagraphd_http_request_seconds_sum{endpoint="query"}`) / n * 1e3
	}
	rc.views = delta("lagraphd_catalog_views_total")
	rc.warms = delta("lagraphd_catalog_warms_total")
	rc.updates = delta("lagraphd_catalog_updates_total")
	rc.walAppends = metricValue(after, "lagraphd_wal_appends_total")
	rc.storeSnapshots = metricValue(after, "lagraphd_store_snapshots_total")
	return rc, nil
}

// closedSegment keeps every connection busy until total requests are
// answered: each sends its next request as soon as the previous answer
// arrived.
func closedSegment(conns []*conn, graph string, seq []query, offset, total int, cs *checksums, t *tally) (wallNS int64, latMS []float64) {
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := nowNS()
	for _, c := range conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			var mine []float64
			for i := int(next.Add(1) - 1); i < total; i = int(next.Add(1) - 1) {
				sent := nowNS()
				done, _ := c.runQuery(graph, seq[(offset+i)%len(seq)], cs, t)
				mine = append(mine, msOfNS(nsOf(done)-sent))
			}
			mu.Lock()
			latMS = append(latMS, mine...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return nowNS() - start, latMS
}

// openSegment sends total requests at rate per second whatever the daemon
// does: request i is due at t0 + i/rate, the connections take due requests
// in order, and latency runs from the due time (dueLatency). If the daemon
// falls behind, requests queue in the harness and the queue is in the
// number, which is the point of an open loop.
func openSegment(conns []*conn, graph string, seq []query, offset, total int, rate float64, cs *checksums, t *tally) (latMS, lagMS []float64) {
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := nowNS() + int64(time.Millisecond)
	for _, c := range conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			var lat, lag []float64
			for {
				i := int(next.Add(1) - 1)
				if i >= total {
					break
				}
				due := dueTime(t0, i, rate)
				sleepUntilNS(due)
				sent := nowNS()
				done, _ := c.runQuery(graph, seq[(offset+i)%len(seq)], cs, t)
				l, g := dueLatency(due, sent, nsOf(done))
				lat, lag = append(lat, msOfNS(l)), append(lag, msOfNS(g))
			}
			mu.Lock()
			latMS, lagMS = append(latMS, lat...), append(lagMS, lag...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return latMS, lagMS
}

// ingestPlan fixes the op counts of the durable phases. They scale with
// -seconds and are otherwise constants, so the journal a restart replays
// has the same length on every run.
type ingestPlan struct {
	slices     int // how many rounds phase W and slices phase M are cut into
	roundBatch int // phase W: batches per slice, written closed-loop by two writers
	mixedBatch int // phase M: write-then-read pairs per slice
}

// journal is how many batches the phases add to the journal.
func (p ingestPlan) journal() int { return p.slices * (p.roundBatch + p.mixedBatch) }

// restarts is how many times recovery is timed.
const restarts = 5

func planIngest(runSeconds float64, slices int) ingestPlan {
	p := ingestPlan{slices: slices, roundBatch: int(5 * runSeconds), mixedBatch: int(4 * runSeconds / 3)}
	if p.roundBatch < 20 {
		p.roundBatch = 20
	}
	if p.mixedBatch < 10 {
		p.mixedBatch = 10
	}
	return p
}

// ingestPhase is the traffic against the durable daemon: bulk rounds (phase
// W) alternating with mixed slices (phase M), and at the end kill -9 and
// timed restarts.
type ingestPhase struct {
	e       *env
	d       *daemon
	dataDir string
	conns   []*conn
	plan    ingestPlan
	warm    int      // batches set-up already journaled
	batches [][]byte // plan.journal() bodies
	next    atomic.Int64
	mix     []query // the reader's questions: one kind, so one latency mode
	probes  []query // what must answer the same after recovery
	cs      *checksums
	t       *tally

	writeMS      []float64 // phase W durable-ack latency, every batch
	bulkEdges    int       // phase W: edges written
	bulkNS       int64     // phase W: wall time, every round's checkpoint read included
	checkpointMS []float64 // phase W: the read after each round, which assembles its tuples
	mixedReadMS  []float64 // phase M reader latency
	recoverS     []float64 // exec → /readyz 200, one per restart
	rssMiB       float64   // daemon VmHWM just before the kill

	walAppends, walFsyncs, walBytes float64 // from /metrics before the kill
	replayed                        float64 // lagraphd_wal_replayed_total after the last restart
	before                          durableState
}

// durableState is what must survive kill -9: every probe's checksum and the
// edge count.
type durableState struct {
	sums   []string
	nedges int
}

func (p *ingestPhase) close() {
	for _, c := range p.conns {
		c.close()
	}
}

// bulkWrite has both connections write closed-loop until `limit` of the
// batches are in the journal, and returns each batch's ack latency.
func (p *ingestPhase) bulkWrite(limit int64) []float64 {
	var lat []float64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, c := range p.conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			var mine []float64
			for i := p.next.Add(1) - 1; i < limit; i = p.next.Add(1) - 1 {
				sent := nowNS()
				done := c.postBatch(ingestGraph, p.batches[i], p.t)
				mine = append(mine, msOfNS(nsOf(done)-sent))
			}
			p.next.Add(-1) // hand back the index this writer overshot by
			mu.Lock()
			lat = append(lat, mine...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return lat
}

// bulkRound is one slice of phase W: roundBatch batches from two closed-loop
// writers, then one checkpoint read. Tuples stay pending until a read
// assembles them, so the read belongs to the cost of making the round's
// edges queryable and is inside ingest_eps.
func (p *ingestPhase) bulkRound() {
	start := nowNS()
	lat := p.bulkWrite(p.next.Load() + int64(p.plan.roundBatch))
	sent := nowNS()
	done, _ := p.conns[0].runQuery(ingestGraph, p.mix[len(p.checkpointMS)%len(p.mix)], p.cs, p.t)
	p.checkpointMS = append(p.checkpointMS, msOfNS(nsOf(done)-sent))
	p.bulkEdges += p.plan.roundBatch * tuplesPerBatch
	p.bulkNS += nsOf(done) - start
	p.writeMS = append(p.writeMS, lat...)
}

// mixedSlice is one slice of phase M: mixedBatch times, one batch is written
// and then one read asked. Every read therefore pays for exactly one batch
// of pending tuples — the assembly the write path deferred — which gives its
// latency one mode. (With the writer on a clock of its own a read met none,
// one or two batches depending on how the two raced, and on the lattice,
// where a search takes less time than the gap between batches, the median
// sat between the modes and moved by half from run to run.)
func (p *ingestPhase) mixedSlice() {
	for i := 0; i < p.plan.mixedBatch; i++ {
		p.conns[1].postBatch(ingestGraph, p.batches[p.next.Add(1)-1], p.t)
		sent := nowNS()
		done, _ := p.conns[0].runQuery(ingestGraph, p.mix[i%len(p.mix)], p.cs, p.t)
		p.mixedReadMS = append(p.mixedReadMS, msOfNS(nsOf(done)-sent))
	}
}

// observe asks the probes and reads the edge count.
func (p *ingestPhase) observe(c *conn) (durableState, error) {
	var s durableState
	for _, q := range p.probes {
		_, qr := c.runQuery(ingestGraph, q, p.cs, p.t)
		if qr == nil {
			return s, fmt.Errorf("probe %s src %d failed", q.algo, q.src)
		}
		s.sums = append(s.sums, qr.Checksum)
	}
	status, body, _, err := c.do(http.MethodGet, "/v1/graphs/"+ingestGraph, nil)
	var props catalog.Properties
	if err != nil || status != http.StatusOK || json.Unmarshal(body, &props) != nil {
		return s, fmt.Errorf("graph info: status %d err %v", status, err)
	}
	s.nedges = props.NEdges
	return s, nil
}

// kill records what must survive, reads the daemon's counters and peak
// memory, and kills it with SIGKILL.
func (p *ingestPhase) kill() error {
	var err error
	if p.before, err = p.observe(p.conns[0]); err != nil {
		return err
	}
	text, err := p.conns[0].metricsText()
	if err != nil {
		return err
	}
	p.walAppends = metricValue(text, "lagraphd_wal_appends_total")
	p.walFsyncs = metricValue(text, "lagraphd_wal_fsyncs_total")
	p.walBytes = metricValue(text, "lagraphd_wal_append_bytes_total")
	journal := p.plan.journal() + p.warm
	p.t.check(int(p.walAppends) == journal, "journal holds %g batches, want %d", p.walAppends, journal)
	if p.rssMiB, err = p.d.peakRSSMiB(); err != nil {
		return err
	}
	p.d.kill()
	return nil
}

// restart boots a daemon on the killed one's directory and times exec →
// /readyz 200. Every restart must replay the whole journal (nothing
// snapshots in between); the last one must also answer exactly as before.
func (p *ingestPhase) restart(last bool) error {
	nd, err := p.e.startDaemon(p.dataDir)
	if err != nil {
		return err
	}
	defer nd.kill()
	p.recoverS = append(p.recoverS, nd.readyS)
	c := newConn(nd.base)
	defer c.close()
	text, err := c.metricsText()
	if err != nil {
		return err
	}
	journal := p.plan.journal() + p.warm
	p.replayed = metricValue(text, "lagraphd_wal_replayed_total")
	p.t.check(int(p.replayed) == journal, "restart replayed %g batches, want %d", p.replayed, journal)
	if !last {
		return nil
	}
	after, err := p.observe(c)
	if err != nil {
		return err
	}
	same := after.nedges == p.before.nedges
	for i := range p.before.sums {
		same = same && after.sums[i] == p.before.sums[i]
	}
	p.t.check(same, "state after recovery %v differs from before the kill %v", after, p.before)
	return nil
}
