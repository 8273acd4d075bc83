package lagraph_test

// The mechanisms the paper's claims rest on, counted rather than timed,
// beside the benchmarks that time them (bench_test.go): a count is the same
// on any host, so a claim that stops holding fails `go test .`.

import (
	"runtime"
	"slices"
	"strings"
	"testing"

	"lagraph/internal/gen"
	"lagraph/internal/grb"
	"lagraph/internal/lagraph"
	"lagraph/internal/obs"
)

// TestC1_OneAssembly: C1's e setElement calls and one wait make exactly one
// assembly, of all e pending tuples (§II-A: the pending tuples that make e
// setElement calls cost one build).
func TestC1_OneAssembly(t *testing.T) {
	is, js, xs := benchTuples(1 << 14)
	c := &obs.Counters{}
	defer obs.Set(obs.Set(c))
	a := grb.MustMatrix[float64](1<<benchScale, 1<<benchScale)
	for k := range is {
		if err := a.SetElement(is[k], js[k], xs[k]); err != nil {
			t.Fatal(err)
		}
	}
	a.Wait()
	if waits, pending := c.Waits.Load(), c.Pending.Load(); waits != 1 || pending != int64(len(is)) {
		t.Errorf("%d setElement calls and one wait made %d assemblies of %d pending tuples, want 1 of %d", len(is), waits, pending, len(is))
	}
}

// TestC2_AssignBytes: C2's batched AssignMatrix allocates bytes in
// proportion to nnz(C) + nnz(A), with one bound per entry at n = 4096 (C2's
// size) and at n = 16 384 (§II-A: a submatrix assign is one pass over C and
// A, not a rebuild of C per entry of A).
func TestC2_AssignBytes(t *testing.T) {
	const perEntry = 32
	for _, n := range []int{4096, 1 << 14} {
		c, a, rows, cols := benchAssignOperands(n)
		const runs = 4
		dups := make([]*grb.Matrix[float64], runs)
		for r := range dups {
			dups[r] = c.Dup()
			dups[r].Wait()
		}
		entries := uint64(c.Nvals() + a.Nvals())
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for _, d := range dups {
				if err := grb.AssignMatrix[float64, bool](d, nil, nil, a, rows, cols, nil); err != nil {
					t.Fatal(err)
				}
				d.Wait()
			}
			runtime.ReadMemStats(&m1)
			bytes := (m1.TotalAlloc - m0.TotalAlloc) / runs
			t.Logf("n = %d: C(I,J) = A over %d + %d entries allocates %d B, %.1f B an entry", n, c.Nvals(), a.Nvals(), bytes, float64(bytes)/float64(entries))
			if bytes > perEntry*entries {
				t.Fatalf("n = %d: the assign allocates %d B, over %d B an entry of C and A (%d B)", n, bytes, perEntry, perEntry*entries)
			}
		}()
	}
}

// TestC3_CostPicksDot: left to MxMAuto, a masked product is priced both
// ways and runs the cheaper kernel, and the masked dot wins when a sparse
// mask bounds the output (§II-A). Under a 1-in-32 sample of ⟨L⟩, C3's
// triangle-counting product L·Uᵀ by plus.pair must run the dot, picked by
// the cost rule. Under the whole of ⟨L⟩ the pick is reported, not pinned:
// there it is Gustavson, which C3's kernel rows also time the faster.
func TestC3_CostPicksDot(t *testing.T) {
	l, u := benchTCOperands()
	pick := func(mask *grb.Matrix[int64]) string {
		trace := obs.NewTrace(4)
		restore := obs.Set(trace)
		c := grb.MustMatrix[int64](l.Nrows(), l.Ncols())
		err := grb.MxM(c, mask, nil, grb.PlusPair[int64, int64, int64](), l, u, &grb.Descriptor{TranB: true})
		obs.Set(restore)
		if err != nil {
			t.Fatal(err)
		}
		var picks []string
		for _, op := range trace.Ops() {
			if op.Op == "mxm" {
				picks = append(picks, op.Kernel+"/"+op.Policy)
			}
		}
		return strings.Join(picks, " ")
	}
	sample := grb.MustMatrix[int64](l.Nrows(), l.Ncols())
	if err := grb.SelectMatrix[int64, bool](sample, nil, nil, func(_ int64, i, j int) bool { return (i+j)%32 == 0 }, l, nil); err != nil {
		t.Fatal(err)
	}
	whole, sparse := pick(l), pick(sample)
	t.Logf("MxMAuto on L·Uᵀ runs %s under ⟨L⟩ (%d entries), %s under a sample of it (%d entries)", whole, l.Nvals(), sparse, sample.Nvals())
	if !strings.HasSuffix(whole, "/cost") || strings.Contains(whole, " ") {
		t.Errorf("MxMAuto on L·Uᵀ under ⟨L⟩ ran %q, want one kernel picked by the cost rule", whole)
	}
	if sparse != "dot/cost" {
		t.Errorf("MxMAuto on L·Uᵀ under a 1-in-32 sample of ⟨L⟩ ran %q, want the dot picked by the cost rule, which a mask this sparse makes the cheaper", sparse)
	}
}

// TestC4_TerminalCutsProducts: one pull over C4's half-full frontier calls
// the multiplier of the literal lor.first with LOR's terminal at most a
// tenth as often as without it — each dot stops at its first product.
func TestC4_TerminalCutsProducts(t *testing.T) {
	_, g, _ := benchGraphs()
	n := g.N()
	frontier := c4Frontier(n)
	defer grb.SetParallelism(grb.SetParallelism(1)) // the count is not atomic
	products := func(terminal bool) int {
		calls := 0
		s := grb.Semiring[bool, float64, bool]{Add: grb.LOrMonoid(), Mul: func(x bool, _ float64) bool { calls++; return x }}
		if !terminal {
			s.Add.Terminal = nil
		}
		w := grb.MustVector[bool](n)
		if err := grb.VxM(w, (*grb.Vector[bool])(nil), nil, s, frontier, g.A, &grb.Descriptor{Dir: grb.DirPull}); err != nil {
			t.Fatal(err)
		}
		return calls
	}
	with, without := products(true), products(false)
	t.Logf("products with the terminal: %d, without: %d", with, without)
	if with*10 > without {
		t.Errorf("with LOR's terminal a pull makes %d products, without it %d: the early exit saves less than 10×", with, without)
	}
}

// TestC5_BFSDirections pins the per-level frontier sizes and directions of
// the direction-optimized BFS on C5's graph from vertex 0: the hump the
// claim is about, push while the frontier is small, pull across its peak.
func TestC5_BFSDirections(t *testing.T) {
	_, g, _ := benchGraphs()
	trace := obs.NewTrace(16)
	if _, err := lagraph.BFSLevels(g, 0, lagraph.WithObserver(trace)); err != nil {
		t.Fatal(err)
	}
	var sizes []int
	var dirs []string
	for _, r := range trace.Iters() {
		sizes, dirs = append(sizes, r.Frontier), append(dirs, r.Dir)
	}
	wantSizes := []int{1, 2213, 4179, 87}
	wantDirs := []string{"push", "pull", "pull", "push"}
	if !slices.Equal(sizes, wantSizes) || !slices.Equal(dirs, wantDirs) {
		t.Errorf("C5's levels have frontiers %v taken %v, want %v taken %v", sizes, dirs, wantSizes, wantDirs)
	}
}

// TestC6_HypersparseBytes: C6's build by setElement allocates no more at
// dimension 2⁴⁰ than at 2¹⁴, plus a fixed slack: a hypersparse matrix costs
// its entries, never its dimension (§II-B).
func TestC6_HypersparseBytes(t *testing.T) {
	const slack = 4 << 10
	el := gen.ErdosRenyi(1<<14, 1<<12, gen.Config{Seed: 7})
	bytes := func(n, shift int) uint64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		const runs = 8
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for r := 0; r < runs; r++ {
			a := grb.MustMatrix[float64](n, n)
			for k := range el.Src {
				if err := a.SetElement(el.Src[k]<<shift, el.Dst[k]<<shift, el.W[k]); err != nil {
					t.Fatal(err)
				}
			}
			a.Wait()
		}
		runtime.ReadMemStats(&m1)
		return (m1.TotalAlloc - m0.TotalAlloc) / runs
	}
	standard, hyper := bytes(1<<14, 0), bytes(1<<40, 26)
	t.Logf("a %d-entry build allocates %d B at n = 2^14, %d B at n = 2^40", len(el.Src), standard, hyper)
	if hyper > standard+slack {
		t.Errorf("a %d-entry build allocates %d B at n = 2^40, over the %d B it takes at n = 2^14 plus %d B: the dimension costs memory", len(el.Src), hyper, standard, slack)
	}
}

// TestC7_ExportImportBytes: export plus import of a matrix moves its arrays
// and allocates no byte that grows with it (§IV: "no new memory is
// allocated"): the same bytes at n = 2¹⁰ as at n = 2¹³.
func TestC7_ExportImportBytes(t *testing.T) {
	_, g13, _ := benchGraphs()
	g10 := lagraph.FromEdgeList(gen.RMAT(10, benchEF, gen.Config{Seed: 2, Undirected: true, NoSelfLoops: true}), lagraph.Undirected)
	bytes := func(a *grb.Matrix[float64]) uint64 {
		a = a.Dup()
		a.Wait()
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		const runs = 64
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for r := 0; r < runs; r++ {
			nr, nc, p, idx, x := a.ExportCSR()
			var err error
			if a, err = grb.ImportCSR(nr, nc, p, idx, x, true); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&m1)
		return (m1.TotalAlloc - m0.TotalAlloc) / runs
	}
	small, large := bytes(g10.A), bytes(g13.A)
	t.Logf("export plus import: %d B at n = 2^10, %d B at n = 2^13", small, large)
	if small != large {
		t.Errorf("export plus import allocates %d B at n = 2^10 and %d B at n = 2^13: the move costs O(n) memory", small, large)
	}
}
