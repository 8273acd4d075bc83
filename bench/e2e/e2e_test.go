package main

import (
	"io"
	"math"
	"regexp"
	"testing"

	"lagraph/internal/obs"
)

func testEnv(t *testing.T) *env {
	t.Helper()
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.cleanup)
	return e
}

// BENCHMARK.json must name exactly the workloads the program has and keep to
// the contract's naming rules and the issue's bounds.
func TestBenchmarkJSON(t *testing.T) {
	bf := testEnv(t).bf
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(bf.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, w := range bf.Workloads {
		if findWorkload(w.Name) == nil {
			t.Errorf("BENCHMARK.json names workload %q, which the program does not have", w.Name)
		}
		if !name.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 || seen[w.Name] {
			t.Errorf("workload %q breaks the naming rules", w.Name)
		}
		seen[w.Name] = true
	}
	for _, s := range append(append([]metricSpec{}, bf.EndToEnd...), bf.PerLayer...) {
		if !name.MatchString(s.Name) || !unit.MatchString(s.Unit) || seen[s.Name] {
			t.Errorf("metric %q (%s) breaks the naming rules", s.Name, s.Unit)
		}
		if s.Better != "lower" && s.Better != "higher" {
			t.Errorf("metric %q: better %q", s.Name, s.Better)
		}
		seen[s.Name] = true
	}
	var setupBound float64
	for _, s := range bf.EndToEnd {
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("metric %q: bound %g outside (0, 0.25]", s.Name, s.Bound)
		}
		if s.Name == "setup_s" {
			setupBound = s.Bound
		}
	}
	for _, s := range bf.EndToEnd {
		if s.Bound > setupBound {
			t.Errorf("metric %q: bound %g above setup_s's %g, which must be the largest", s.Name, s.Bound, setupBound)
		}
	}
	for _, s := range bf.PerLayer {
		if s.Bound != 0 {
			t.Errorf("per-layer metric %q has a bound", s.Name)
		}
	}
}

// Every workload runs end to end at toy size, in both modes, with no failed
// op and exactly the declared metrics.
func TestWorkloadsEndToEndToy(t *testing.T) {
	e := testEnv(t)
	for i := range workloads {
		w := &workloads[i]
		for _, trace := range []bool{false, true} {
			res, err := run(e, w, 1, 1, trace, true, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct %v, %d of %d ops failed", w.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			specs := e.bf.EndToEnd
			if trace {
				specs = e.bf.PerLayer
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(specs))
			}
			for _, s := range specs {
				v, ok := res.Metrics[s.Name]
				if !ok || v.Unit != s.Unit {
					t.Errorf("%s trace=%v: metric %s missing or in %q, want %q", w.name, trace, s.Name, v.Unit, s.Unit)
				}
				if !trace && !(v.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %g, must be positive", w.name, s.Name, v.Value)
				}
			}
			if trace {
				if got := res.Metrics["svc.rejected"].Value; got != 0 {
					t.Errorf("%s: %g requests rejected", w.name, got)
				}
				if got := res.Metrics["wal.read_phase_appends"].Value + res.Metrics["store.read_phase_snapshots"].Value; got != 0 {
					t.Errorf("%s: the volatile daemon touched wal/store %g times", w.name, got)
				}
				want := float64(planIngest(1*svcShare, sliceCount).journal() + 1)
				if got := res.Metrics["store.replay_applied"].Value; got != want-1 {
					t.Errorf("%s: in-process replay applied %g batches, want %g", w.name, got, want-1)
				}
				if got := res.Metrics["wal.appends"].Value; got != want {
					t.Errorf("%s: daemon journaled %g batches, want %g", w.name, got, want)
				}
			}
		}
	}
}

// A wrong known answer must stop the run before any clock starts.
func TestCorruptKnownAnswerFails(t *testing.T) {
	e := testEnv(t)
	w := *findWorkload("grid")
	w.triangles = 7 // a lattice has none
	if _, err := run(e, &w, 1, 1, false, true, io.Discard); err == nil {
		t.Fatal("run accepted a corrupted known answer")
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n, wantPct int
		wantOK     bool
	}{
		{99, 0, false}, // 9 samples beyond p90: one short
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{999, 95, true},
		{1000, 99, true},
		{100000, 99, true}, // the ladder stops at p99
	} {
		pct, ok := tailPercentile(c.n)
		if pct != c.wantPct || ok != c.wantOK {
			t.Errorf("tailPercentile(%d) = %d, %v; want %d, %v", c.n, pct, ok, c.wantPct, c.wantOK)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	s := summarize(xs)
	if s.N != 1000 || s.Min != 0 || s.Median != 499.5 || s.Q1 != 249.75 || s.Q3 != 749.25 || s.TailPct != 99 || math.Abs(s.Tail-989.01) > 1e-9 {
		t.Errorf("summarize(0..999) = %+v", s)
	}
}

// The open-loop rule on a fake clock: a stalled generator charges the stall
// to the requests it delayed.
func TestDueLatency(t *testing.T) {
	const rate = 1000 // one request per millisecond
	t0 := int64(5_000_000)
	if got := dueTime(t0, 3, rate); got != t0+3_000_000 {
		t.Fatalf("dueTime = %d", got)
	}
	// On time: sent when due, answered 400 µs later.
	due := dueTime(t0, 0, rate)
	if lat, lag := dueLatency(due, due, due+400_000); lat != 400_000 || lag != 0 {
		t.Errorf("on time: latency %d lag %d", lat, lag)
	}
	// The previous request stalled for 2.5 ms: request 1 is sent 1.5 ms
	// late and served in 400 µs, so it took 1.9 ms from when it was due.
	due = dueTime(t0, 1, rate)
	sent := t0 + 2_500_000
	if lat, lag := dueLatency(due, sent, sent+400_000); lat != 1_900_000 || lag != 1_500_000 {
		t.Errorf("after a stall: latency %d lag %d", lat, lag)
	}
	// A generator that wakes early never reports negative lag.
	if _, lag := dueLatency(due, due-10, due+5); lag != 0 {
		t.Errorf("early send: lag %d", lag)
	}
}

func TestSelfTimeAndTotals(t *testing.T) {
	doc := obs.TraceDocument{
		Schema: obs.TraceSchema,
		Ops: []obs.OpRecord{
			{Op: "vxm", Kernel: "push", DurNanos: 300, ActFlops: 10, EstFlops: 100, Chunks: 4, MaxChunkFlops: 50},
			{Op: "vxm", Kernel: "pull", DurNanos: 200},
			{Op: "mxm", Kernel: "dot", DurNanos: 1000, EstFlops: 80, Chunks: 1, MaxChunkFlops: 80},
			{Op: "wait", Kernel: "assemble", DurNanos: 50},
		},
		Iters: []obs.IterRecord{{Algo: "bfs", Iter: 1}, {Algo: "bfs", Iter: 2}},
	}
	if got := selfNS(2000, doc); got != 450 {
		t.Errorf("selfNS = %d, want 2000 − 1550", got)
	}
	var g grbTotals
	g.add(doc)
	if g.ns["vxm"] != 500 || g.ops["vxm"] != 2 || g.ns["mxm"] != 1000 || g.ns["wait"] != 50 {
		t.Errorf("per-op totals %+v %+v", g.ns, g.ops)
	}
	if g.actFlops != 10 || g.push != 1 || g.pull != 1 {
		t.Errorf("flops %d push %d pull %d", g.actFlops, g.push, g.pull)
	}
	// 50·4/100 = 2; the serial mxm (one chunk) has no imbalance to report.
	if g.imbalance != 2 {
		t.Errorf("imbalance %g, want 2", g.imbalance)
	}
}
