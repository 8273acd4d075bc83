package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"lagraph/internal/catalog"
	"lagraph/internal/gen"
	"lagraph/internal/grb"
	"lagraph/internal/lagraph"
	"lagraph/internal/obs"
	"lagraph/internal/store"
	"lagraph/internal/svc"
	"lagraph/internal/wal"
)

// The trace pass times each layer's public functions from outside, with
// what the repository already has: an obs.Trace installed around a kernel,
// the daemon's /metrics, httptest against svc's Handler. Spans inside the
// program are a later change (ROADMAP item 2); until then the breakdown rows
// report the share of each end-to-end median the outside view cannot place.

// traceCapacity holds every record of one kernel trial: a lattice BFS emits
// a few ops per level and there are hundreds of levels per source.
const traceCapacity = 1 << 18

// selfNS is a kernel's self time: its wall time minus the time the traced
// grb ops inside it account for.
func selfNS(wallNS int64, doc obs.TraceDocument) int64 {
	for _, op := range doc.Ops {
		wallNS -= op.DurNanos
	}
	return wallNS
}

// grbTotals folds one trace document into the per-layer grb counters.
type grbTotals struct {
	ns        map[string]int64 // op → summed duration
	ops       map[string]int64 // op → count
	actFlops  int64
	push      int64
	pull      int64
	imbalance float64 // max MaxChunkFlops·Chunks/EstFlops
}

func (g *grbTotals) add(doc obs.TraceDocument) {
	if g.ns == nil {
		g.ns, g.ops = map[string]int64{}, map[string]int64{}
	}
	for _, op := range doc.Ops {
		g.ns[op.Op] += op.DurNanos
		g.ops[op.Op]++
		g.actFlops += op.ActFlops
		switch op.Kernel {
		case "push":
			g.push++
		case "pull":
			g.pull++
		}
		if op.EstFlops > 0 && op.Chunks > 1 {
			if r := float64(op.MaxChunkFlops) * float64(op.Chunks) / float64(op.EstFlops); r > g.imbalance {
				g.imbalance = r
			}
		}
	}
}

// iterAlgo maps a kernel to the IterRecord.Algo its loop emits; tc is one
// masked mxm and bc a fixed sweep per level, neither emits a per-iteration
// record worth counting.
var iterAlgo = map[string]string{"bfs": "bfs", "sssp": "sssp", "pagerank": "pagerank", "cc": "cc-fastsv"}

// tracedKernels runs tracedPasses rounds of the kernels with an obs.Trace
// installed around each trial and fills the grb.* and lagraph.* metrics;
// untracedMS holds each kernel's untraced median, which the traced medians
// are compared against. Counts come from the first pass and must repeat in
// the others.
func tracedKernels(ks []kernel, untracedMS map[string]float64, m metrics, t *tally) {
	walls := map[string][]float64{}
	selfs := map[string][]float64{}
	opMS := map[string][]float64{}
	var first grbTotals
	iters := map[string]int{}
	for pass := 0; pass < tracedPasses; pass++ {
		var totals grbTotals
		for _, k := range ks {
			tr := obs.NewTrace(traceCapacity)
			prev := obs.Set(tr)
			t0 := time.Now()
			err := k.trial()
			wall := time.Since(t0)
			obs.Set(prev)
			doc := tr.Document()
			t.check(err == nil && doc.DroppedOps == 0 && doc.DroppedIters == 0,
				"traced %s: err %v, dropped %d ops %d iters", k.name, err, doc.DroppedOps, doc.DroppedIters)
			totals.add(doc)
			walls[k.name] = append(walls[k.name], msOfNS(int64(wall))/float64(k.units))
			selfs[k.name] = append(selfs[k.name], msOfNS(selfNS(int64(wall), doc))/float64(k.units))
			n := 0
			for _, it := range doc.Iters {
				if it.Algo == iterAlgo[k.name] {
					n++
				}
			}
			if pass == 0 {
				iters[k.name] = n
			} else {
				t.check(iters[k.name] == n, "traced %s: %d iterations, first pass %d", k.name, n, iters[k.name])
			}
		}
		for _, op := range []string{"mxm", "vxm", "mxv", "wait"} {
			opMS[op] = append(opMS[op], msOfNS(totals.ns[op]))
		}
		if pass == 0 {
			first = totals
		} else {
			t.check(totals.actFlops == first.actFlops && totals.push == first.push && totals.pull == first.pull,
				"traced pass %d: flops/push/pull %d/%d/%d, first pass %d/%d/%d",
				pass, totals.actFlops, totals.push, totals.pull, first.actFlops, first.push, first.pull)
		}
	}
	for _, op := range []string{"mxm", "vxm", "mxv", "wait"} {
		m.set("grb."+op+"_ms", median(opMS[op]), "ms")
	}
	for _, op := range []string{"mxm", "vxm", "mxv"} {
		m.set("grb."+op+"_ops", float64(first.ops[op]), "count")
	}
	m.set("grb.act_flops", float64(first.actFlops), "count")
	m.set("grb.push_steps", float64(first.push), "count")
	m.set("grb.pull_steps", float64(first.pull), "count")
	m.set("grb.chunk_imbalance", first.imbalance, "ratio")
	tracedSum, untracedSum, selfSum := 0.0, 0.0, 0.0
	for _, k := range ks {
		m.set("lagraph."+k.name+"_self_ms", median(selfs[k.name]), "ms")
		selfSum += median(selfs[k.name]) * float64(k.units)
		if _, ok := iterAlgo[k.name]; ok {
			m.set("lagraph."+k.name+"_iters", float64(iters[k.name]), "count")
		}
		tracedSum += median(walls[k.name]) * float64(k.units)
		untracedSum += untracedMS[k.name] * float64(k.units)
	}
	m.set("lagraph.self_share", selfSum/tracedSum, "ratio")
	m.set("obs.trace_overhead_frac", tracedSum/untracedSum-1, "ratio")
}

// grbProbes times the two direct grb calls set-up depends on.
func grbProbes(el *gen.EdgeList, m metrics) error {
	var build, transpose []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		a := el.Matrix() // Matrix.Build of the edge list
		a.Wait()
		t1 := time.Now()
		at := grb.MustMatrix[float64](el.N, el.N)
		if err := grb.Transpose[float64, bool](at, nil, nil, a, nil); err != nil {
			return err
		}
		at.Wait()
		build = append(build, msBetween(t0, t1))
		transpose = append(transpose, msBetween(t1, time.Now()))
	}
	m.set("grb.build_ms", median(build), "ms")
	m.set("grb.transpose_ms", median(transpose), "ms")
	return nil
}

func noView(*lagraph.Graph) error { return nil }

// catalogProbes times Entry.View, Entry.Ingest and the warm-up the first
// View after an ingest pays, in process on the ingest graph.
func catalogProbes(el *gen.EdgeList, batches []store.EdgeBatch, m metrics) (ingestUS float64, err error) {
	cat := catalog.New()
	e, err := cat.Add("probe", lagraph.FromEdgeList(el, lagraph.Undirected))
	if err != nil {
		return 0, err
	}
	if err := e.View(noView); err != nil {
		return 0, err
	}
	const views = 20000
	t0 := time.Now()
	for i := 0; i < views; i++ {
		if err := e.View(noView); err != nil {
			return 0, err
		}
	}
	m.set("catalog.view_ns", float64(time.Since(t0))/views, "ns")

	var ingest, warm []float64
	for i := 0; i < 30; i++ {
		b := batches[i%len(batches)]
		b.Name = "probe"
		t0 := time.Now()
		err := e.Ingest(func(g *lagraph.Graph) (bool, error) { return true, store.ApplyEdgeBatch(g, b) })
		if err != nil {
			return 0, err
		}
		t1 := time.Now()
		if err := e.View(noView); err != nil {
			return 0, err
		}
		ingest = append(ingest, msBetween(t0, t1)*1e3)
		warm = append(warm, msBetween(t1, time.Now()))
	}
	m.set("catalog.ingest_us", median(ingest), "us")
	m.set("catalog.warm_ms", median(warm), "ms")
	return median(ingest), nil
}

// handlerProbe drives bfs queries through svc's Handler with no socket and
// the same searches straight through lagraph, and returns both medians in
// microseconds: their difference is what svc and catalog add to a kernel.
func handlerProbe(el *gen.EdgeList, sources []int, n int) (handlerUS, kernelUS float64, err error) {
	cat := catalog.New()
	if _, err := cat.Add("probe", lagraph.FromEdgeList(el, lagraph.Undirected)); err != nil {
		return 0, 0, err
	}
	h := svc.New(cat, nil, svc.Config{}).Handler()
	direct := lagraph.FromEdgeList(el, lagraph.Undirected)
	var viaHandler, viaLibrary []float64
	for i := -5; i < n; i++ { // five unrecorded warm-up rounds
		q := newQuery("bfs", sources[(i+5)%len(sources)])
		req := httptest.NewRequest(http.MethodPost, "/v1/graphs/probe/query", bytes.NewReader(q.body))
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		t1 := time.Now()
		if rec.Code != http.StatusOK {
			return 0, 0, fmt.Errorf("handler probe: status %d: %.200s", rec.Code, rec.Body)
		}
		if _, err := lagraph.BFSLevels(direct, q.src); err != nil {
			return 0, 0, err
		}
		t2 := time.Now()
		if i >= 0 {
			viaHandler = append(viaHandler, msBetween(t0, t1)*1e3)
			viaLibrary = append(viaLibrary, msBetween(t1, t2)*1e3)
		}
	}
	return median(viaHandler), median(viaLibrary), nil
}

// socketProbe is the HTTP floor: the median GET /healthz round trip.
func socketProbe(c *conn, n int) (float64, error) {
	var us []float64
	for i := 0; i < n; i++ {
		sent := nowNS()
		status, _, done, err := c.do(http.MethodGet, "/healthz", nil)
		if err != nil || status != http.StatusOK {
			return 0, fmt.Errorf("/healthz: status %d err %v", status, err)
		}
		us = append(us, float64(nsOf(done)-sent)/1e3)
	}
	return median(us), nil
}

// walProbes times Log.Append with and without the fsync, on the filesystem
// the daemon's -data lives on, with one encoded 64-tuple batch as payload.
func walProbes(e *env, b store.EdgeBatch, m metrics) (syncUS float64, err error) {
	payload, err := b.Encode()
	if err != nil {
		return 0, err
	}
	for _, p := range []struct {
		metric string
		opt    wal.Options
		n      int
	}{
		{"wal.append_sync_us", wal.Options{}, 300},
		{"wal.append_nosync_us", wal.Options{NoSync: true}, 3000},
	} {
		dir, err := e.tempDir("walprobe-")
		if err != nil {
			return 0, err
		}
		l, err := wal.Open(dir, p.opt)
		if err != nil {
			return 0, err
		}
		var us []float64
		for i := 0; i < p.n; i++ {
			t0 := time.Now()
			if _, err := l.Append(payload); err != nil {
				l.Close()
				return 0, err
			}
			us = append(us, float64(time.Since(t0))/1e3)
		}
		if err := l.Close(); err != nil {
			return 0, err
		}
		e.removeTemp(dir)
		m.set(p.metric, median(us), "us")
		if !p.opt.NoSync {
			syncUS = median(us)
		}
	}
	return syncUS, nil
}

// storeProbes replays the daemon's durable life in process: a baseline
// snapshot, the same journal of batches, then a cold boot — wal.Open (chain
// verification), Log.Replay and Persister.LoadAll each timed on their own.
func storeProbes(e *env, el *gen.EdgeList, batches []store.EdgeBatch, m metrics) (openMS, loadMS float64, err error) {
	dir, err := e.tempDir("storeprobe-")
	if err != nil {
		return 0, 0, err
	}
	defer e.removeTemp(dir)
	walDir := filepath.Join(dir, "wal")
	const name = "probe"

	st, err := store.Open(dir)
	if err != nil {
		return 0, 0, err
	}
	cat := catalog.New()
	p := store.NewPersister(st, cat)
	log, err := wal.Open(walDir, wal.Options{NoSync: true})
	if err != nil {
		return 0, 0, err
	}
	p.AttachWAL(log)
	entry, err := cat.Add(name, lagraph.FromEdgeList(el, lagraph.Undirected))
	if err != nil {
		return 0, 0, err
	}
	snap, err := p.SnapshotOne(name)
	if err != nil {
		return 0, 0, err
	}
	m.set("store.snapshot_ms", snap.ElapsedMS, "ms")
	m.set("store.snapshot_bytes", float64(snap.Bytes), "bytes")
	m.set("store.bytes_per_edge", float64(snap.Bytes)/float64(len(el.Src)), "bytes")
	for _, b := range batches {
		b.Name = name
		// The write path of svc.handleEdges without the HTTP around it.
		err := entry.Ingest(func(g *lagraph.Graph) (bool, error) {
			lsn, err := p.JournalEdges(b)
			if err != nil {
				return false, err
			}
			if err := store.ApplyEdgeBatch(g, b); err != nil {
				return true, err
			}
			entry.SetJournalSeq(lsn)
			p.MarkApplied(name, lsn)
			return true, nil
		})
		if err != nil {
			return 0, 0, err
		}
	}
	if err := log.Close(); err != nil {
		return 0, 0, err
	}

	t0 := time.Now()
	log, err = wal.Open(walDir, wal.Options{NoSync: true})
	if err != nil {
		return 0, 0, err
	}
	defer log.Close()
	openMS = msBetween(t0, time.Now())
	t0 = time.Now()
	records := 0
	if err := log.Replay(1, func(wal.Record) error { records++; return nil }); err != nil {
		return 0, 0, err
	}
	m.set("wal.open_ms", openMS, "ms")
	m.set("wal.replay_rec_per_s", float64(records)/time.Since(t0).Seconds(), "1/s")

	st, err = store.Open(dir)
	if err != nil {
		return 0, 0, err
	}
	p = store.NewPersister(st, catalog.New())
	p.AttachWAL(log)
	t0 = time.Now()
	if _, err := p.LoadAll(); err != nil {
		return 0, 0, err
	}
	loadMS = msBetween(t0, time.Now())
	m.set("store.load_ms", loadMS, "ms")
	m.set("store.replay_applied", float64(p.ReplayStats().Applied), "count")
	return openMS, loadMS, nil
}

// probeSources draws a few sources for the handler probe from candidates.
func probeSources(seed int64, candidates []int) []int {
	return drawSources(rand.New(rand.NewSource(seed)), candidates, 8)
}
