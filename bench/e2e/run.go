package main

import (
	_ "embed"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"lagraph/internal/baseline"
	"lagraph/internal/lagraph"
	"lagraph/internal/mmio"
)

//go:embed testdata/karate.mtx
var karateMTX string

// verifyKarate reads Zachary's karate club through internal/mmio and checks
// its two textbook answers: 45 triangles, one component.
func verifyKarate(t *tally) {
	a, _, err := mmio.ReadMatrix(strings.NewReader(karateMTX))
	if err != nil {
		t.check(false, "karate.mtx: %v", err)
		return
	}
	g, err := lagraph.NewGraph(a, lagraph.Undirected)
	if err != nil {
		t.check(false, "karate.mtx: %v", err)
		return
	}
	tc, err := lagraph.TriangleCount(g, lagraph.TCAuto)
	t.check(err == nil && tc == 45, "karate: %d triangles (err %v), want 45", tc, err)
	labels, err := lagraph.ConnectedComponentsFastSV(g)
	t.check(err == nil && lagraph.CountComponents(labels) == 1, "karate: not one component (err %v)", err)
}

// Graph names on the daemons.
const (
	readGraph   = "read"
	ingestGraph = "ingest"
)

// setupRounds is how many times set-up is repeated; setup_s is the median.
const setupRounds = 3

// How a trace run spends -seconds: libShare of it on untraced rounds of the
// kernels (what the traced rounds are compared against), and service phases
// sized for svcShare of it; the probes take what they take.
const (
	libShare     = 0.4
	svcShare     = 0.6
	sliceCount   = restarts // rounds of phase W, slices of phase M, pairs of read segments
	readShare    = 0.25     // of the service seconds, over all open-loop read segments
	tracedPasses = 5        // traced rounds: medians for the layer times
)

// run executes one workload once and returns its result line. Without trace
// it measures the end-to-end metrics and nothing else: rounds of the six
// kernels for the whole of -seconds. With trace it measures every per-layer
// metric: a shorter library phase, traced rounds, the service phases against
// two spawned daemons, and direct probes of each layer.
func run(e *env, w *workload, seed int64, runSeconds float64, trace, toy bool, logw io.Writer) (result, error) {
	t := &tally{}
	m := metrics{}

	// Known answers first, on a graph built outside any timed window.
	verifyStart := time.Now()
	verifyKarate(t)
	libEL := w.lib(toy)
	libCand := sourceCandidates(baseline.FromMatrix(libEL.Matrix()))
	rng := rand.New(rand.NewSource(seed))
	in := &libInputs{
		g:       lagraph.FromEdgeList(libEL, lagraph.Undirected),
		bfsSrc:  drawSources(rng, libCand, w.bfsSources),
		ssspSrc: drawSources(rng, libCand, w.ssspSources),
		bcSrc:   drawSources(rng, libCand, w.bcBatch),
	}
	verifyLibrary(w, in, t)
	verifyS := time.Since(verifyStart).Seconds()
	if t.failed.Load() > 0 {
		return result{}, fmt.Errorf("known answers wrong before any clock started: %s", strings.Join(t.messages, "; "))
	}
	// The oracle's memory is not the library's: give it back and start the
	// high-water mark again, so that peak_rss_mb is what set-up and the
	// kernels need.
	in.g = nil
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintf(logw, "peak_rss_mb includes verification: %v\n", err)
	}

	// Set-up, setupRounds times from scratch: generate, build, two warm-up
	// rounds of the kernels.
	var setupS, genMS, buildMS []float64
	lib := &libPhase{t: t}
	for round := 0; round < setupRounds; round++ {
		t0 := time.Now()
		g, gms, bms := buildLibraryGraph(w, toy)
		in.g = g
		lib.ks, lib.trials = kernels(w, in), map[string][]float64{}
		lib.round()
		lib.round()
		setupS = append(setupS, time.Since(t0).Seconds())
		genMS, buildMS = append(genMS, gms), append(buildMS, bms)
	}
	lib.trials = map[string][]float64{} // the warm-up rounds are not samples
	fmt.Fprintf(logw, "setup_s           %s\n", summarize(setupS))

	measureStart := time.Now()
	stolen0, total0 := vcpuJiffies()
	libSeconds := runSeconds
	if trace {
		libSeconds *= libShare
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	lib.roundsUntil(measureStart.Add(seconds2dur(libSeconds)))
	runtime.ReadMemStats(&after)
	rounds := len(lib.trials[lib.ks[0].name])
	m.set("lagraph.alloc_mb_per_round", float64(after.TotalAlloc-before.TotalAlloc)/float64(rounds)/(1<<20), "MiB")
	rss, err := peakRSSMiB(os.Getpid())
	if err != nil {
		return result{}, err
	}
	m.set("setup_s", median(setupS), "s")
	m.set("peak_rss_mb", rss, "MiB")
	fmt.Fprintf(logw, "peak_rss_mb       %.5g MiB (this process, since verification ended); %.5g MiB allocated per round, %d collections in %d rounds\n",
		rss, m["lagraph.alloc_mb_per_round"].Value, after.NumGC-before.NumGC, rounds)
	untraced := map[string]float64{}
	for _, k := range lib.ks {
		sum := summarize(lib.trials[k.name])
		untraced[k.name] = sum.Median
		m.set(k.name+"_ms", sum.Median, "ms")
		fmt.Fprintf(logw, "%-17s %s (ms per unit, %d per trial, %.1f s timed)\n",
			k.name+"_ms", sum, k.units, sum.Sum*float64(k.units)/1e3)
	}

	specs := e.bf.EndToEnd
	if trace {
		specs = e.bf.PerLayer
		tracedKernels(lib.ks, untraced, m, t)
		if err := servicePass(e, w, seed, runSeconds*svcShare, toy, m, t, logw); err != nil {
			return result{}, err
		}
		if err := grbProbes(libEL, m); err != nil {
			return result{}, err
		}
		m.set("gen.graph_ms", median(genMS), "ms")
		m.set("lagraph.from_edgelist_ms", median(buildMS), "ms")
		m.set("harness.build_s", e.buildS, "s")
		m.set("harness.verify_s", verifyS, "s")
		m.set("svc.rejected", float64(t.rejected.Load()), "count")
	}

	out, err := selectMetrics(m, specs)
	if err != nil {
		return result{}, err
	}
	if trace {
		for _, s := range specs {
			fmt.Fprintf(logw, "  %-34s %.6g %s\n", s.Name, out[s.Name].Value, s.Unit)
		}
	}
	res := result{Correct: t.failed.Load() == 0, Attempted: t.attempted.Load(), Failed: t.failed.Load(), Metrics: out}
	// What the hypervisor says it took from this VM while the clock ran: a
	// run with more than a percent or two stolen measured the neighbours.
	stolen1, total1 := vcpuJiffies()
	fmt.Fprintf(logw, "ops attempted %d, failed %d, rejected %d; harness.verify_s %.2f; measured for %.1fs, %.1f%% of vCPU time stolen\n",
		res.Attempted, res.Failed, t.rejected.Load(), verifyS, time.Since(measureStart).Seconds(),
		100*float64(stolen1-stolen0)/math.Max(1, float64(total1-total0)))
	for _, msg := range t.messages {
		fmt.Fprintln(logw, "FAILED:", msg)
	}
	return res, nil
}

// serviceSetup is one set-up's live daemons.
type serviceSetup struct {
	volatile, durable *daemon
	dataDir           string
}

func (s *serviceSetup) stop(e *env) {
	if s.volatile != nil {
		s.volatile.kill()
	}
	if s.durable != nil {
		s.durable.kill()
	}
	if s.dataDir != "" {
		e.removeTemp(s.dataDir)
	}
}

// servicePass is the service half of a trace run: it spawns a volatile and
// a durable lagraphd, drives the read, bulk-write and mixed phases against
// them, kills the durable one and times its restarts, then probes svc,
// catalog, wal and store directly and prints the three breakdown rows — what
// the outside view of each layer accounts for of an end-to-end median, and
// the share it cannot place.
func servicePass(e *env, w *workload, seed int64, svcSeconds float64, toy bool, m metrics, t *tally, logw io.Writer) error {
	cs := &checksums{}
	plan := planIngest(svcSeconds, sliceCount)
	readEL, ingestEL := w.read(toy), w.ingest(toy)
	readCand := sourceCandidates(baseline.FromMatrix(readEL.Matrix()))
	ingestCand := sourceCandidates(baseline.FromMatrix(ingestEL.Matrix()))

	// Inputs drawn from the seed, on a stream of their own so that the
	// library's sources do not depend on what the service phases draw.
	rng := rand.New(rand.NewSource(seed ^ 0x5e71ce))
	readSeq := readMix(rng, drawSources(rng, readCand, 16), 200)
	// Phase M's reader asks one kind of question, so that its latencies have
	// one mode and therefore a median that stays put.
	var mix []query
	for _, src := range drawSources(rng, ingestCand, 4) {
		mix = append(mix, newQuery("bfs", src))
	}
	probes := []query{mix[0], newQuery("parents", mix[1].src), newQuery("cc", 0), newQuery("pagerank", 0)}
	batches := edgeBatches(rng, ingestGraph, ingestEL, plan.journal()+1)
	bodies := make([][]byte, len(batches))
	for i, b := range batches {
		bodies[i] = batchBody(b)
	}

	var svcs serviceSetup
	defer func() { svcs.stop(e) }()
	t0 := time.Now()
	if err := startServices(e, &svcs, w, toy, readSeq, mix, bodies[0], cs, t); err != nil {
		return err
	}
	m.set("harness.svc_setup_s", time.Since(t0).Seconds(), "s")
	if t.failed.Load() > 0 {
		return errors.New("service set-up: " + strings.Join(t.messages, "; "))
	}

	read, err := newReadPhase(svcs.volatile, readSeq, w.openRate, cs, t)
	if err != nil {
		return daemonError(err, svcs.volatile)
	}
	defer read.close()
	ing := &ingestPhase{
		e: e, d: svcs.durable, dataDir: svcs.dataDir, conns: dial(svcs.durable.base), plan: plan,
		warm: 1, batches: bodies[1:], mix: mix, probes: probes, cs: cs, t: t,
	}
	defer ing.close()

	// A read segment is a fixed number of requests, in whole mixBlocks. The
	// open-loop segments get readShare of the service seconds; a closed-loop
	// segment holds 1.2 s of open-loop arrivals, which the daemon answers in
	// about a third of a second when both connections keep it busy.
	blocks := func(requests float64) int { return len(mixBlock) * max(1, int(requests/float64(len(mixBlock)))) }
	openN := blocks(w.openRate * svcSeconds * readShare / sliceCount)
	closedN := blocks(1.2 * w.openRate)
	for s := 0; s < sliceCount; s++ {
		read.segmentPair(closedN, openN)
		ing.bulkRound()
		ing.mixedSlice()
	}

	// The volatile daemon is done: counters, the socket floor, memory.
	rc, err := read.counters()
	if err != nil {
		return daemonError(err, svcs.volatile)
	}
	socketUS, err := socketProbe(read.conns[0], 1000)
	if err != nil {
		return daemonError(err, svcs.volatile)
	}
	startS := svcs.volatile.readyS
	svcs.volatile.kill()
	svcs.volatile = nil

	// kill -9 the durable daemon, then restart it on the same directory.
	if err := ing.kill(); err != nil {
		return daemonError(err, svcs.durable)
	}
	svcs.durable = nil
	for r := 0; r < restarts; r++ {
		if err := ing.restart(r == restarts-1); err != nil {
			return fmt.Errorf("restart %d: %w", r, err)
		}
	}

	readAll, write, mixed := summarize(read.openMS), summarize(ing.writeMS), summarize(ing.mixedReadMS)
	recoverS := median(ing.recoverS)
	m.set("read_p50_ms", readAll.Median, "ms")
	m.set("read_qps", median(read.qps), "1/s")
	m.set("write_p50_ms", write.Median, "ms")
	m.set("ingest_eps", float64(ing.bulkEdges)/seconds(ing.bulkNS), "edges/s")
	m.set("mixed_read_p50_ms", mixed.Median, "ms")
	m.set("recover_s", recoverS, "s")
	m.set("daemon_rss_mb", ing.rssMiB, "MiB")
	fmt.Fprintf(logw, "read_p50_ms       %s (open loop at %g/s; generator lag %s)\n", readAll, w.openRate, summarize(read.lagMS))
	fmt.Fprintf(logw, "read_qps          %s (closed-loop latency %s)\n", summarize(read.qps), summarize(read.closedMS))
	fmt.Fprintf(logw, "write_p50_ms      %s (%d rounds of %d batches of %d, 2 writers)\n", write, plan.slices, plan.roundBatch, tuplesPerBatch)
	fmt.Fprintf(logw, "ingest_eps        %.6g (checkpoint read after each round: %s)\n", m["ingest_eps"].Value, summarize(ing.checkpointMS))
	fmt.Fprintf(logw, "mixed_read_p50_ms %s (%d slices of %d write-then-read pairs)\n", mixed, plan.slices, plan.mixedBatch)
	fmt.Fprintf(logw, "recover_s         %s (%g batches replayed per restart)\n", summarize(ing.recoverS), ing.replayed)
	fmt.Fprintf(logw, "daemon_rss_mb     %.5g MiB (durable daemon, just before the kill)\n", ing.rssMiB)

	ingestUS, err := catalogProbes(ingestEL, batches[1:], m)
	if err != nil {
		return err
	}
	m.set("catalog.first_read_after_bulk_ms", median(ing.checkpointMS), "ms")
	m.set("catalog.views", rc.views, "count")
	m.set("catalog.warms", rc.warms, "count")
	m.set("catalog.updates", rc.updates, "count")

	handlerUS, kernelUS, err := handlerProbe(readEL, probeSources(seed, readCand), 300)
	if err != nil {
		return err
	}
	ingHandlerUS, ingKernelUS, err := handlerProbe(ingestEL, probeSources(seed, ingestCand), 60)
	if err != nil {
		return err
	}
	m.set("svc.socket_us", socketUS, "us")
	m.set("svc.handler_us", handlerUS-kernelUS, "us")
	m.set("svc.kernel_share", kernelUS/handlerUS, "ratio")
	m.set("svc.kernel_share_ingest", ingKernelUS/ingHandlerUS, "ratio")
	m.set("svc.query_server_ms", rc.serverMS, "ms")
	m.set("svc.read_tail_ms", readAll.Tail, "ms")
	m.set("svc.write_tail_ms", write.Tail, "ms")
	m.set("svc.mixed_read_tail_ms", mixed.Tail, "ms")
	m.set("svc.sched_lag_tail_ms", summarize(read.lagMS).Tail, "ms")

	syncUS, err := walProbes(e, batches[1], m)
	if err != nil {
		return err
	}
	m.set("wal.appends", ing.walAppends, "count")
	m.set("wal.fsyncs", ing.walFsyncs, "count")
	m.set("wal.bytes_per_edge", ing.walBytes/(ing.walAppends*tuplesPerBatch), "bytes")
	m.set("wal.read_phase_appends", rc.walAppends, "count")
	m.set("store.read_phase_snapshots", rc.storeSnapshots, "count")
	openMS, loadMS, err := storeProbes(e, ingestEL, batches[1:], m)
	if err != nil {
		return err
	}

	row := func(name string, whole float64, unit string, parts ...float64) {
		sum := 0.0
		for _, x := range parts {
			sum += x
		}
		frac := 1 - sum/whole
		m.set(name+".unattributed_frac", frac, "ratio")
		fmt.Fprintf(logw, "breakdown %-8s %.4g %s = %.4g attributed + %.1f%% unattributed\n", name, whole, unit, sum, 100*frac)
	}
	// read = socket + handler + kernel; write = socket + catalog ingest +
	// fsynced append; recover = process start + wal open + store load.
	row("read", readAll.Median*1e3, "us", socketUS, handlerUS-kernelUS, kernelUS)
	row("write", write.Median*1e3, "us", socketUS, ingestUS, syncUS)
	row("recover", recoverS*1e3, "ms", startS*1e3, openMS, loadMS)
	return nil
}

// vcpuJiffies reads the first line of /proc/stat: the time the hypervisor
// ran something else while a vCPU of this VM was runnable, and all time.
func vcpuJiffies() (stolen, total uint64) {
	data, _ := os.ReadFile("/proc/stat") // unreadable: reported as nothing stolen
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(strings.TrimPrefix(line, "cpu")) {
		v, _ := strconv.ParseUint(f, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal
			total += v
		}
		if i == 7 {
			stolen = v
		}
	}
	return stolen, total
}

func seconds2dur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// daemonError attaches the child's stderr to a failure that involves it.
func daemonError(err error, d *daemon) error {
	if d == nil {
		return err
	}
	d.kill() // stderr is only safe to read once the child is gone
	return fmt.Errorf("%w; lagraphd stderr:\n%s", err, d.stderr.String())
}

// startServices spawns the volatile and the durable daemon, loads their
// graphs and warms them: every read-mix algorithm once on the read graph;
// on the ingest graph one journaled batch — which forces the baseline
// snapshot a never-snapshotted graph needs — and one query.
func startServices(e *env, s *serviceSetup, w *workload, toy bool, readSeq, mix []query, warmBody []byte, cs *checksums, t *tally) error {
	var err error
	if s.volatile, err = e.startDaemon(""); err != nil {
		return err
	}
	c := newConn(s.volatile.base)
	defer c.close()
	if err := c.loadGraph(readGraph, w.read(toy)); err != nil {
		return daemonError(err, s.volatile)
	}
	warmed := map[string]bool{}
	for _, q := range readSeq {
		if !warmed[q.algo] {
			warmed[q.algo] = true
			c.runQuery(readGraph, q, cs, t)
		}
	}

	if s.dataDir, err = e.tempDir("data-"); err != nil {
		return err
	}
	if s.durable, err = e.startDaemon(s.dataDir); err != nil {
		return err
	}
	d := newConn(s.durable.base)
	defer d.close()
	if err := d.loadGraph(ingestGraph, w.ingest(toy)); err != nil {
		return daemonError(err, s.durable)
	}
	d.postBatch(ingestGraph, warmBody, t)
	d.runQuery(ingestGraph, mix[0], cs, t)
	return nil
}
