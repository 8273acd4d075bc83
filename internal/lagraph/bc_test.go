package lagraph

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"lagraph/internal/baseline"
	"lagraph/internal/grb"
	"lagraph/internal/obs"
)

// spreadSources returns k distinct vertices spread over [0, n).
func spreadSources(n, k int) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = (i*n/k + 7*i) % n
	}
	return out
}

// mustMatchBrandes compares a batched BC with Brandes' accumulation over
// the same sources, to 1e-9 relative.
func mustMatchBrandes(t *testing.T, label string, g *Graph, bg *baseline.Graph, sources []int) {
	t.Helper()
	got, err := BetweennessCentrality(g, sources)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want := baseline.BetweennessCentralitySources(bg, sources)
	for v, w := range want {
		gv, err := got.GetElement(v) // absent entry: centrality 0
		if err != nil {
			gv = 0
		}
		if math.Abs(gv-w) > 1e-9*math.Max(1, math.Abs(w)) {
			t.Fatalf("%s: bc(%d) = %v, Brandes has %v", label, v, gv, w)
		}
	}
}

// TestBCKnownAnswers: batched BC against Brandes on RMAT-12, undirected and
// directed (A ≠ Aᵀ: a sweep handed the wrong orientation of A, in either
// direction grb may take it, gives different numbers), over batches that
// keep the frontier matrix at 1, 4 and 32 rows, a batch that repeats a
// source, and one that starts from a vertex with no edge to follow.
func TestBCKnownAnswers(t *testing.T) {
	for _, undirected := range []bool{true, false} {
		g := rmatGraph(t, 12, 8, 20, undirected)
		bg := baseline.FromMatrix(g.A)
		name := map[bool]string{true: "undirected", false: "directed"}[undirected]
		for _, batch := range []int{1, 4, 32} {
			mustMatchBrandes(t, fmt.Sprintf("%s, %d sources", name, batch), g, bg, spreadSources(g.N(), batch))
		}
		mustMatchBrandes(t, name+", a repeated source", g, bg, []int{5, 900, 5, 5})
		isolated := -1
		for v := 0; v < bg.N; v++ {
			if adj, _ := bg.Row(v); len(adj) == 0 {
				isolated = v
				break
			}
		}
		if isolated < 0 {
			t.Fatalf("%s RMAT-12 has no vertex without out-edges", name)
		}
		mustMatchBrandes(t, name+", an isolated source", g, bg, []int{isolated})
		mustMatchBrandes(t, name+", an isolated source in a batch", g, bg, []int{3, isolated, 77})
	}
}

// TestMSBFSMatchesBFSLevels: on a directed graph every row of the batched
// level matrix is the single-source BFS from that row's source, whichever
// direction each level's mxm took.
func TestMSBFSMatchesBFSLevels(t *testing.T) {
	g := rmatGraph(t, 12, 8, 21, false)
	sources := spreadSources(g.N(), 32)
	levels, err := MSBFSLevels(g, sources)
	if err != nil {
		t.Fatal(err)
	}
	for s, src := range sources {
		want, err := BFSLevels(g, src)
		if err != nil {
			t.Fatal(err)
		}
		wi, wx := want.ExtractTuples()
		row := grb.MustVector[int32](g.N())
		if err := grb.ExtractMatrixRow[int32, bool](row, nil, nil, levels, s, grb.All, nil); err != nil {
			t.Fatal(err)
		}
		gi, gx := row.ExtractTuples()
		if len(gi) != len(wi) {
			t.Fatalf("source %d: %d vertices levelled, BFS reaches %d", src, len(gi), len(wi))
		}
		for k := range wi {
			if gi[k] != wi[k] || gx[k] != wx[k] {
				t.Fatalf("source %d: entry %d is level(%d) = %d, BFS has level(%d) = %d", src, k, gi[k], gx[k], wi[k], wx[k])
			}
		}
	}
}

// bcSweepEstimates recomputes, from plain BFS depths, the two estimates
// grb's cost rule weighs at every masked mxm of one BetweennessCentrality
// call, in call order: the forward levels, then the backward ones. push is
// Σ saxpyFlops over the rows of the frontier matrix — one per row plus the
// lengths of the rows of the right operand its entries select; pull is, per
// non-empty row, one, the row, the column positions the mask makes a dot
// kernel visit, and the lengths of the right operand's columns it admits.
func bcSweepEstimates(bg *baseline.Graph, sources []int) (push, pull []int64) {
	n := bg.N
	outdeg, indeg := make([]int64, n), make([]int64, n)
	for v := 0; v < n; v++ {
		adj, _ := bg.Row(v)
		outdeg[v] = int64(len(adj))
		for _, u := range adj {
			indeg[u]++
		}
	}
	depth := make([][]int, len(sources))
	levels := 0
	for s, src := range sources {
		depth[s], _ = baseline.BFSLevels(bg, src)
		for _, d := range depth[s] {
			levels = max(levels, d+1)
		}
	}
	// sum adds f over the vertices of source s's row at depth d.
	sum := func(s, d int, f func(v int) int64) (cnt, total int64) {
		for v, dv := range depth[s] {
			if dv == d {
				cnt++
				total += f(v)
			}
		}
		return
	}
	for d := 0; d < levels; d++ { // next⟨¬paths⟩ = frontier ⊕.⊗ A
		var ps, pl int64
		for s := range sources {
			la, rows := sum(s, d, func(v int) int64 { return outdeg[v] })
			ps += 1 + rows
			if la == 0 {
				pl++
				continue
			}
			pl += 1 + la + int64(n)
			for v, dv := range depth[s] {
				if dv < 0 || dv > d {
					pl += indeg[v]
				}
			}
		}
		push, pull = append(push, ps), append(pull, pl)
	}
	for d := levels - 1; d >= 1; d-- { // t⟨levels[d-1]⟩ = w ⊕.⊗ Aᵀ
		var ps, pl int64
		for s := range sources {
			la, rows := sum(s, d, func(v int) int64 { return indeg[v] })
			ps += 1 + rows
			if la == 0 {
				pl++
				continue
			}
			admitted, cols := sum(s, d-1, func(v int) int64 { return outdeg[v] })
			pl += 1 + la + admitted + cols
		}
		push, pull = append(push, ps), append(pull, pl)
	}
	return push, pull
}

// tracedBC runs one BC under a fresh trace and returns its mxm records, in
// call order, and its "bc" iteration records.
func tracedBC(t *testing.T, g *Graph, sources []int) (ops []obs.OpRecord, iters []obs.IterRecord) {
	t.Helper()
	trace := obs.NewTrace(1 << 12)
	restore := obs.Set(trace)
	_, err := BetweennessCentrality(g, sources)
	obs.Set(restore)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range trace.Ops() {
		if op.Op == "mxm" {
			ops = append(ops, op)
		}
	}
	for _, it := range trace.Iters() {
		if it.Algo == "bc" {
			iters = append(iters, it)
		}
	}
	if len(ops) != len(iters) || len(ops)%2 == 0 {
		t.Fatalf("%d mxm records and %d bc iteration records; want one of each per level, L forward and L-1 backward", len(ops), len(iters))
	}
	return ops, iters
}

// TestBCDirectionFollowsCost is the work gate for BC's masked products:
// every one is decided by cost, the estimate it records is the smaller of
// the two recomputed here from BFS depths, both sweeps use both directions
// on a skewed graph, and the sum of the estimates — a count, the same on
// any host — stays under a bound set 25 % above its measured value
// (EXPERIMENTS.md "Masked mxm direction"; the polarity rule's choices sum to
// 2.26× as much on this input). On the lattice every forward step is a push
// whose estimate is at or under the floor of the pull, the case the rule
// decides without reading the mask.
func TestBCDirectionFollowsCost(t *testing.T) {
	g := rmatGraph(t, 12, 8, 20, true)
	sources := spreadSources(g.N(), 4)
	push, pull := bcSweepEstimates(baseline.FromMatrix(g.A), sources)
	ops, iters := tracedBC(t, g, sources)
	if len(ops) != len(push) {
		t.Fatalf("%d mxm records, BFS depths give %d levels", len(ops), len(push))
	}
	forward := (len(ops) + 1) / 2
	var total, byPolarity int64
	kernels := [2]map[string]int{{}, {}}
	for k, op := range ops {
		dir := "push"
		if pull[k] < push[k] {
			dir = "pull"
		}
		gotDir := "push"
		if op.Kernel == "dot" {
			gotDir = "pull"
		}
		if op.Policy != "cost" || !op.Masked || op.EstFlops != min(push[k], pull[k]) || gotDir != dir || iters[k].Dir != dir {
			t.Fatalf("mxm %d of %d: %s (iteration record %q) under policy %q with estimate %d; recomputed push %d, pull %d",
				k, len(ops), op.Kernel, iters[k].Dir, op.Policy, op.EstFlops, push[k], pull[k])
		}
		total += op.EstFlops
		sweep := 0
		byPolarity += push[k] // complemented mask: Gustavson
		if k >= forward {
			sweep = 1
			byPolarity += pull[k] - push[k] // positive mask: dot
		}
		kernels[sweep][gotDir]++
	}
	t.Logf("RMAT-12, 4 sources: forward %v, backward %v, Σ EstFlops %d (the polarity rule's choices: %d)", kernels[0], kernels[1], total, byPolarity)
	for sweep, used := range kernels {
		if used["push"] == 0 || used["pull"] == 0 {
			t.Errorf("sweep %d took %v: a skewed graph has levels on both sides of the rule", sweep, used)
		}
	}
	const maxEstFlops = 249_900 // 1.25 × the 199 935 measured
	if total > maxEstFlops {
		t.Errorf("Σ EstFlops over the call is %d, limit %d", total, maxEstFlops)
	}

	lattice := unweightedLattice(64)
	ops, _ = tracedBC(t, lattice, []int{32*64 + 32})
	for k, op := range ops[:(len(ops)+1)/2] {
		floor := int64(1 + op.NnzA + op.Cols)
		if op.Kernel != "gustavson" || op.Policy != "cost" || op.EstFlops > floor {
			t.Fatalf("lattice forward level %d: %s under %q with estimate %d; want a push at or under the pull's floor of %d",
				k, op.Kernel, op.Policy, op.EstFlops, floor)
		}
	}
}

// TestBCAndMSBFSCancel: both batched traversals stop at the level a context
// ends on — BC in either sweep — and complete under a live one.
func TestBCAndMSBFSCancel(t *testing.T) {
	g := cancelGraph(t)
	sources := []int{0, 9, 100}
	done, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BetweennessCentrality(g, sources, WithContext(done)); !errors.Is(err, grb.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("BetweennessCentrality under a done context: %v", err)
	}
	if _, err := MSBFSLevels(g, sources, WithContext(done)); !errors.Is(err, grb.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("MSBFSLevels under a done context: %v", err)
	}

	// Cancel from the observer at the first backward level: the forward
	// sweep's records ascend, so the first repeat of a depth is backward.
	ctx, cancelBackward := context.WithCancel(context.Background())
	defer cancelBackward()
	watch := &cancelOnRepeat{Trace: obs.NewTrace(256), cancel: cancelBackward}
	_, err := BetweennessCentrality(g, sources, WithContext(ctx), WithObserver(watch))
	if !errors.Is(err, grb.ErrCanceled) {
		t.Fatalf("BetweennessCentrality canceled in its backward sweep: %v", err)
	}
	if n := len(watch.Iters()); n != watch.forward+1 {
		t.Fatalf("%d levels recorded, %d of them forward: the backward sweep ran past the cancellation", n, watch.forward)
	}

	live, stop := context.WithCancel(context.Background())
	defer stop()
	want, err := BetweennessCentrality(g, sources)
	if err != nil {
		t.Fatal(err)
	}
	got, err := BetweennessCentrality(g, sources, WithContext(live))
	if err != nil || tupleBytes(got).String() != tupleBytes(want).String() {
		t.Fatalf("BetweennessCentrality under a live context differs (err %v)", err)
	}
}

// cancelOnRepeat is a trace that cancels a context at the first iteration
// record whose depth does not exceed the one before it.
type cancelOnRepeat struct {
	*obs.Trace
	cancel  context.CancelFunc
	last    int
	forward int
}

func (c *cancelOnRepeat) Iter(r obs.IterRecord) {
	c.Trace.Iter(r)
	if c.forward == 0 && r.Iter <= c.last {
		c.forward = len(c.Trace.Iters()) - 1
		c.cancel()
	}
	c.last = r.Iter
}

// TestConcurrentBCSharesLanes: the dot kernel scatters long frontier rows
// into lanes drawn from the pool PageRank's result lanes and Gustavson's
// accumulators come from. Batched BC and PageRank queries running at once
// on one graph must each get the serial answer: a lane handed back dirty, or
// while a dot still probes it, is a wrong answer here and a report under
// -race.
func TestConcurrentBCSharesLanes(t *testing.T) {
	g := rmatGraph(t, 10, 8, 20, true)
	g.A.Materialize()
	g.OutDegree().Wait()
	sources := spreadSources(g.N(), 4)
	centrality := func() []byte {
		bc, err := BetweennessCentrality(g, sources)
		if err != nil {
			t.Error(err)
			return nil
		}
		return tupleBytes(bc).Bytes()
	}
	rank := func() []byte {
		res, err := PageRankWith(g)
		if err != nil {
			t.Error(err)
			return nil
		}
		return tupleBytes(res.Rank).Bytes()
	}
	wantBC, wantRank := centrality(), rank()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				if (w+i)%3 != 0 {
					if !bytes.Equal(centrality(), wantBC) {
						t.Errorf("worker %d round %d: BC differs from the serial run", w, i)
					}
				} else if !bytes.Equal(rank(), wantRank) {
					t.Errorf("worker %d round %d: PageRank differs from the serial run", w, i)
				}
			}
		}()
	}
	wg.Wait()
}
