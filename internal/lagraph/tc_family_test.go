package lagraph

import (
	"runtime"
	"testing"

	"lagraph/internal/baseline"
	"lagraph/internal/gen"
	"lagraph/internal/obs"
)

// tcAllMethods enumerates the full formulation family, including the
// adaptive entry.
var tcAllMethods = []struct {
	name string
	m    TCMethod
}{
	{"burkhardt", TCBurkhardt}, {"cohen", TCCohen},
	{"sandiaLL", TCSandiaLL}, {"sandiaLUT", TCSandiaDot},
	{"sandiaUU", TCSandiaUU}, {"sandiaULT", TCSandiaULT},
	{"auto", TCAuto},
}

var tcAllPresorts = []struct {
	name string
	p    TCPresort
}{
	{"nosort", TCNoSort}, {"asc", TCSortAscending},
	{"desc", TCSortDescending}, {"autosort", TCSortAuto},
}

// TestTriangleCountFamilyAgrees: every method × presort combination must
// report the same count as the dense baseline — the triangle count is
// invariant under both the formulation and any vertex relabeling.
func TestTriangleCountFamilyAgrees(t *testing.T) {
	for _, seed := range []int64{1, 5} {
		g := rmatGraph(t, 8, 8, seed, true)
		want := baseline.TriangleCount(baseline.FromMatrix(g.A.Dup()))
		for _, m := range tcAllMethods {
			for _, p := range tcAllPresorts {
				got, err := TriangleCount(g, m.m, WithPresort(p.p))
				if err != nil {
					t.Fatalf("%s/%s: %v", m.name, p.name, err)
				}
				if got != want {
					t.Fatalf("%s/%s: %d triangles, want %d", m.name, p.name, got, want)
				}
			}
		}
	}
}

// TestTriangleCountNewMethodsSmall pins the new formulations on a graph
// with a known count.
func TestTriangleCountNewMethodsSmall(t *testing.T) {
	k4 := FromEdgeList(gen.Complete(4, gen.Config{Undirected: true}), Undirected)
	for _, m := range tcAllMethods {
		for _, p := range tcAllPresorts {
			if c, err := TriangleCount(k4, m.m, WithPresort(p.p)); err != nil || c != 4 {
				t.Fatalf("K4 %s/%s: %d (%v)", m.name, p.name, c, err)
			}
		}
	}
}

// TestTriangleCountBadArguments: out-of-range methods and presorts are
// rejected, not silently clamped.
func TestTriangleCountBadArguments(t *testing.T) {
	g := rmatGraph(t, 6, 4, 1, true)
	if _, err := TriangleCount(g, TCMethod(99)); err != ErrBadArgument {
		t.Fatalf("method 99: %v, want ErrBadArgument", err)
	}
	if _, err := TriangleCount(g, TCBurkhardt, WithPresort(TCPresort(99))); err != ErrBadArgument {
		t.Fatalf("presort 99: %v, want ErrBadArgument", err)
	}
	if _, err := TriangleCount(g, TCMethod(-1)); err != ErrBadArgument {
		t.Fatalf("method -1: %v, want ErrBadArgument", err)
	}
}

// midHubStar builds a star whose hub sits mid-ordering (plus one closing
// edge so a triangle exists): the worst natural labeling for the saxpy
// formulations — the hub's long strict-lower row is replayed by every
// higher-indexed neighbor — and therefore the shape TCSortAuto must
// repair.
func midHubStar(n int) *gen.EdgeList {
	el := &gen.EdgeList{N: n}
	hub := n / 2
	for v := 0; v < n; v++ {
		if v != hub {
			el.Src = append(el.Src, hub, v)
			el.Dst = append(el.Dst, v, hub)
			el.W = append(el.W, 1, 1)
		}
	}
	el.Src = append(el.Src, 1, 2)
	el.Dst = append(el.Dst, 2, 1)
	el.W = append(el.W, 1, 1)
	return el
}

// TestTriangleCountTracesDecision: the resolved method and presort are
// runtime decisions under TCAuto/TCSortAuto; the trace must surface them.
func TestTriangleCountTracesDecision(t *testing.T) {
	cfg := gen.Config{Undirected: true, Seed: 7}
	star := FromEdgeList(midHubStar(64), Undirected)
	rmat := rmatGraph(t, 12, 16, 99, true)
	for _, c := range []struct {
		name   string
		g      *Graph
		method TCMethod
		want   string
	}{
		// The saxpy LL formulation prefers ascending order, and the work
		// estimate (hub mid-ordering → Σ d₋·d₊ ≫ nnz) must have engaged;
		// TCAuto resolves to the same plan without the caller naming
		// either. At n ≤ 1 000 the skew rule is off, so the dot pair
		// counts on the ordering as given.
		{"star/sandia-ll", star, TCSandiaLL, "sandia-ll/sorted-ascending"},
		{"star/auto", star, TCAuto, "sandia-ll/sorted-ascending"},
		{"star/sandia-lut", star, TCSandiaDot, "sandia-lut/unsorted"},
		// On a degree-regular graph nothing sorts: every vertex's
		// below/above split is balanced but tiny, so the estimate stays
		// under the rebuild bar.
		{"ring/auto", FromEdgeList(gen.Ring(32, gen.Config{Undirected: true}), Undirected), TCAuto, "sandia-ll/unsorted"},
		// A skewed graph (n > 1 000, nnz/n ≥ 10, mean degree > 4 ×
		// median) takes LAGraph's plan: the masked dot on a degree
		// relabel, ascending for LUT and descending for ULT.
		{"rmat-12x16/auto", rmat, TCAuto, "sandia-lut/sorted-ascending"},
		{"rmat-12x16/sandia-lut", rmat, TCSandiaDot, "sandia-lut/sorted-ascending"},
		{"rmat-12x16/sandia-ult", rmat, TCSandiaULT, "sandia-ult/sorted-descending"},
		// Large graphs that are not skewed keep the LL plan and its work
		// estimate: the lattice (nnz/n ≈ 4), an Erdős–Rényi graph (mean ≈
		// median) and a power law whose median is not small enough.
		{"lattice-128x128/auto", FromEdgeList(gen.Grid2D(128, 128, cfg), Undirected), TCAuto, "sandia-ll/unsorted"},
		{"erdos-renyi/auto", FromEdgeList(gen.ErdosRenyi(1<<14, 16<<14, cfg), Undirected), TCAuto, "sandia-ll/sorted-ascending"},
		{"powerlaw-1.8/auto", FromEdgeList(gen.PowerLaw(1<<14, 16<<14, 1.8, cfg), Undirected), TCAuto, "sandia-ll/unsorted"},
	} {
		tr := obs.NewTrace(16)
		opts := []Option{WithObserver(tr)}
		if c.method != TCAuto {
			opts = append(opts, WithPresort(TCSortAuto))
		}
		if _, err := TriangleCount(c.g, c.method, opts...); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var recs []obs.IterRecord
		for _, r := range tr.Iters() {
			if r.Algo == "tc" {
				recs = append(recs, r)
			}
		}
		if len(recs) != 1 {
			t.Fatalf("%s: %d tc trace records, want 1", c.name, len(recs))
		}
		if recs[0].Dir != c.want || recs[0].Frontier <= 0 {
			t.Errorf("%s: traced %q with %d entries, want %q and the prepared entry count", c.name, recs[0].Dir, recs[0].Frontier, c.want)
		}
	}
}

// TestTriangleCountPresortDeterministic: the degree sort breaks ties on
// vertex index, so repeated runs produce identical results even on
// degree-regular graphs where every comparison ties.
func TestTriangleCountPresortDeterministic(t *testing.T) {
	g := rmatGraph(t, 7, 8, 9, true)
	first, err := TriangleCount(g, TCSandiaDot, WithPresort(TCSortAscending))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := TriangleCount(g, TCSandiaDot, WithPresort(TCSortAscending))
		if err != nil {
			t.Fatal(err)
		}
		if again != first {
			t.Fatalf("run %d: %d, first run %d", i, again, first)
		}
	}
}

// TestTriangleCountKnownAnswers: triangle counts that are known without
// running anything. K_n has C(n,3) triangles; a tree and the lattice (which
// is bipartite) have none; and on a skewed graph of benchmark shape every
// formulation under every presort — each combination of kernel, mask
// orientation and relabeling — must land on the dense baseline's count.
func TestTriangleCountKnownAnswers(t *testing.T) {
	cfg := gen.Config{Undirected: true, Seed: 7}
	for _, k := range []struct {
		name string
		g    *Graph
		want int64
	}{
		{"K256", FromEdgeList(gen.Complete(256, cfg), Undirected), 256 * 255 * 254 / 6},
		{"tree-16384", FromEdgeList(gen.Tree(1<<14, cfg), Undirected), 0},
		{"lattice-128x128", FromEdgeList(gen.Grid2D(128, 128, cfg), Undirected), 0},
	} {
		for _, p := range tcAllPresorts {
			got, err := TriangleCount(k.g, TCAuto, WithPresort(p.p))
			if err != nil || got != k.want {
				t.Errorf("%s auto/%s: %d triangles (%v), want %d", k.name, p.name, got, err, k.want)
			}
		}
	}
	if testing.Short() {
		t.Skip("the RMAT-12 method × presort sweep is skipped in -short mode")
	}
	g := rmatGraph(t, 12, 8, 99, true)
	want := baseline.TriangleCount(baseline.FromMatrix(g.A.Dup()))
	for _, m := range tcAllMethods {
		for _, p := range tcAllPresorts {
			got, err := TriangleCount(g, m.m, WithPresort(p.p))
			if err != nil || got != want {
				t.Errorf("RMAT-12 %s/%s: %d triangles (%v), want %d", m.name, p.name, got, err, want)
			}
		}
	}
}

// TestTriangleCountPrepAllocatesPerEntry is the work gate for everything
// TriangleCount does around its multiply: building the pattern, counting
// self loops, testing for skew, estimating the natural ordering's work,
// relabeling by degree and selecting the triangles. Each is a pass over the
// stored entries, done on a graph's first count and cached on the Graph,
// so the bytes a call allocates per entry is a count that does not depend
// on the host. One row per plan the library picks on RMAT-12:
//   - (SandiaLL, TCSortAuto): a first count reads ~77, ~16 of it the
//     pattern; copying the off-diagonal part of a graph with no self loops
//     adds ~25, staging a select's rows in a slab ~40, and exporting tuples
//     and re-sorting them through Build more than doubles it. A repeat
//     count is the multiply and its reduction (~19); preparing the input
//     again reads ~87.
//   - TCAuto, which takes the dot pair on this skewed graph: a first count
//     also selects U, and a repeat count's dot stages its output rows.
func TestTriangleCountPrepAllocatesPerEntry(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops entries at random: the kernel scratch is reallocated and the bytes stop being a count")
	}
	g := rmatGraph(t, 12, 8, 99, true)
	g.A.Materialize()
	for _, row := range []struct {
		name    string
		method  TCMethod
		plan    string
		maxCold float64 // bytes per entry on a graph's first count
		maxWarm float64 // and on a repeat
	}{
		// The prep-only gate's 1.25 × 84–87 (a first count reads 75–78),
		// and 1.25 × the 18.8 measured.
		{"sandia-ll", TCSandiaLL, "sandia-ll/sorted-ascending", 108, 24},
		// 1.25 × the 89.3–92.6 and 23.9–26.4 measured; a repeat that
		// prepares the dot pair's input again reads 70.
		{"auto", TCAuto, "sandia-lut/sorted-ascending", 116, 33},
	} {
		t.Run(row.name, func(t *testing.T) {
			count := func(g *Graph, opts ...Option) {
				if row.method != TCAuto {
					opts = append(opts, WithPresort(TCSortAuto))
				}
				if _, err := TriangleCount(g, row.method, opts...); err != nil {
					t.Fatal(err)
				}
			}
			trace := obs.NewTrace(4)
			count(g, WithObserver(trace)) // fills the kernel scratch pools
			if plan := trace.Iters()[0].Dir; plan != row.plan {
				t.Fatalf("plan %q, want %q: the gate needs a graph this plan relabels", plan, row.plan)
			}
			perEntry := func(g *Graph) float64 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				count(g)
				runtime.ReadMemStats(&after)
				return float64(after.TotalAlloc-before.TotalAlloc) / float64(g.NEdges())
			}
			fresh, err := NewGraph(g.A, Undirected) // same A, nothing cached
			if err != nil {
				t.Fatal(err)
			}
			cold := perEntry(fresh)
			warm := perEntry(fresh)
			t.Logf("%s on RMAT-12 (%d entries): %.1f B per entry on a graph's first count, %.1f on a repeat", row.plan, g.NEdges(), cold, warm)
			if cold > row.maxCold {
				t.Errorf("a first TriangleCount allocates %.1f bytes per stored entry (limit %.0f): some preparation step is materializing tuples or re-sorting instead of passing over rows", cold, row.maxCold)
			}
			if warm > row.maxWarm {
				t.Errorf("a repeat TriangleCount allocates %.1f bytes per stored entry (limit %.0f): the prepared triangle is rebuilt per call, not cached on the Graph", warm, row.maxWarm)
			}
		})
	}
}

// TestTriangleCountLatticeRepeatAllocates: the lattice has no triangles, so
// a repeat count's masked product leaves every row empty, and the write
// rule's mask filter must not build a mask view for any of them. A repeat
// call reads 25 allocations; it made 32 817 while the filter built a view
// and a tester for each of the 16 384 rows and the prep ran every call.
func TestTriangleCountLatticeRepeatAllocates(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops entries at random: the kernel scratch is reallocated and the allocations stop being a count")
	}
	const maxAllocs = 64
	g := FromEdgeList(gen.Grid2D(128, 128, gen.Config{Undirected: true, Seed: 7}), Undirected)
	count := func() {
		if c, err := TriangleCount(g, TCAuto); err != nil || c != 0 {
			t.Fatalf("%d triangles (%v), want 0", c, err)
		}
	}
	count() // prepares and caches the triangle
	allocs := testing.AllocsPerRun(4, count)
	t.Logf("a repeat TriangleCount(TCAuto) on the 128² lattice: %.0f allocations", allocs)
	if allocs > maxAllocs {
		t.Errorf("a repeat TriangleCount on the lattice makes %.0f allocations (limit %d): the write rule builds a mask view for rows the product left empty, or the prep is not cached", allocs, maxAllocs)
	}
}
