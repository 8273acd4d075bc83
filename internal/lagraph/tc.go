package lagraph

import (
	"cmp"
	"slices"

	"lagraph/internal/grb"
	"lagraph/internal/obs"
)

// Triangle counting (§V, [34], [35]) as the full method family of the
// LAGraph evolution study — Burkhardt, Cohen, and the Sandia variants over
// both triangles and both multiply orientations — plus degree presort, and
// k-truss (§V, [36], [37]). All require undirected graphs; self loops are
// ignored by masking to the strict triangles.

// TCMethod selects the triangle counting formulation. The zero value is
// TCBurkhardt; TCAuto lets the library choose.
type TCMethod int

const (
	// TCBurkhardt computes sum(A²∘A)/6: the masked square of the full
	// adjacency.
	TCBurkhardt TCMethod = iota
	// TCCohen computes sum(L·U ∘ A)/2 with L/U the lower/upper triangles.
	TCCohen
	// TCSandiaLL computes sum(L·L ∘ L): each triangle counted once.
	TCSandiaLL
	// TCSandiaDot computes sum(L·Uᵀ ∘ L) using the dot-product kernel —
	// the formulation that showcases the masked dot mxm (§II-A). In the
	// LAGraph family naming this is SandiaLUT.
	TCSandiaDot
	// TCSandiaUU computes sum(U·U ∘ U): SandiaLL over the upper triangle.
	TCSandiaUU
	// TCSandiaULT computes sum(U·Lᵀ ∘ U) with the dot kernel: the
	// transpose-orientation twin of SandiaLUT.
	TCSandiaULT
	// TCAuto picks the plan for the graph by LAGraph's rule: on a skewed
	// graph (more than 1 000 vertices, at least 10 entries per vertex and
	// a mean degree above 4× the median) the masked dot SandiaLUT, else
	// the saxpy SandiaLL. Unless the caller chose a presort explicitly it
	// is paired with TCSortAuto, so a skewed graph counts on an
	// ascending-degree relabel and the LL plan relabels exactly when its
	// work estimate says the relabeling pays.
	TCAuto
)

// tcMethodNames renders methods for iteration traces.
var tcMethodNames = map[TCMethod]string{
	TCBurkhardt: "burkhardt",
	TCCohen:     "cohen",
	TCSandiaLL:  "sandia-ll",
	TCSandiaDot: "sandia-lut",
	TCSandiaUU:  "sandia-uu",
	TCSandiaULT: "sandia-ult",
	TCAuto:      "auto",
}

// TCPresort selects the degree ordering applied to the graph before
// counting. Relabeling vertices by ascending degree drastically evens out
// the saxpy work of the LL formulation on skewed (power-law) graphs: a
// hub relabeled to the highest index never appears as an inner index k,
// so its long L row is never replayed into other rows' accumulations.
// Descending order does the same for UU. For the dot pair, ascending
// order (descending for ULT) leaves every L row short except the hubs',
// and the masked dot scatters a hub's long row into a lane once and
// probes it with each short column it meets. The count is invariant
// under any vertex relabeling, so the permutation needs no inverse on
// output — it is applied once, counted, and discarded.
type TCPresort int

const (
	// TCNoSort counts on the input ordering (the zero value).
	TCNoSort TCPresort = iota
	// TCSortAscending relabels vertices by ascending degree.
	TCSortAscending
	// TCSortDescending relabels vertices by descending degree.
	TCSortDescending
	// TCSortAuto sorts only for the methods whose shape the ordering
	// helps: the saxpy pair when the estimated work of the natural
	// ordering (Σᵥ d₋(v)·d₊(v), the exact inner-loop count of the LL
	// formulation) exceeds tcSortWorkFactor× the entry count — the
	// regime where hubs sit mid-ordering and their rows are replayed —
	// and the dot pair when the graph is skewed (see TCAuto).
	TCSortAuto
)

// tcPresortNames renders presorts for iteration traces.
var tcPresortNames = map[TCPresort]string{
	TCNoSort:         "none",
	TCSortAscending:  "ascending",
	TCSortDescending: "descending",
	TCSortAuto:       "auto",
}

// tcSortWorkFactor: TCSortAuto engages when the natural ordering's
// estimated saxpy work exceeds this many multiples of the entry count
// (the rebuild the sort costs is itself a small multiple of nnz).
const tcSortWorkFactor = 4

// TriangleCount counts the triangles of an undirected graph. method picks
// the formulation (TCAuto lets the library choose); WithPresort selects
// the degree relabeling.
func TriangleCount(g *Graph, method TCMethod, opts ...Option) (_ int64, err error) {
	defer catch(&err)
	try(g.requireUndirected())
	cfg := newOptions(opts)
	// One pass of the loop: a cancellation check before the preparation
	// and one before the multiply, and the plan's record.
	lp := cfg.loop("tc")
	try(lp.next())
	if method < TCBurkhardt || method > TCAuto {
		return 0, ErrBadArgument
	}
	presort := cfg.Presort
	if presort < TCNoSort || presort > TCSortAuto {
		return 0, ErrBadArgument
	}

	if method == TCAuto && !cfg.PresortSet {
		presort = TCSortAuto
	}
	in, err := g.tcPrepared(method, presort)
	try(err)

	// Trace the resolved plan: method and presort are runtime decisions
	// when the caller passed TCAuto / TCSortAuto, and a trace is the only
	// place they can be read back.
	if lp.traced() {
		sorted := "unsorted"
		if in.dir > 0 {
			sorted = "sorted-ascending"
		} else if in.dir < 0 {
			sorted = "sorted-descending"
		}
		lp.done(obs.IterRecord{Iter: 1, Dir: tcMethodNames[in.plan] + "/" + sorted, Frontier: in.nvals})
	}
	try(lp.next())
	return tcCount(in)
}

// tcInput is what one concrete formulation multiplies: the off-diagonal
// adjacency, relabeled by degree when the presort resolves to a
// direction, reduced to the matrices the plan reads (nil where it reads
// none). It is cached on the Graph for one requested (method, presort)
// at a time, so TCAuto's choice is made once per prepared input.
type tcInput struct {
	method  TCMethod // the requested method and presort: the cache key
	presort TCPresort
	plan    TCMethod // the resolved formulation: method, or TCAuto's choice
	dir     int      // the resolved relabeling: +1 ascending, -1 descending, 0 none
	nvals   int      // entries of the prepared adjacency, as the tc trace reports them
	a, l, u *grb.Matrix[int64]
}

// Wait settles every matrix the record holds, so cached.store publishes
// them together.
func (in tcInput) Wait() {
	for _, m := range []*grb.Matrix[int64]{in.a, in.l, in.u} {
		if m != nil {
			m.Wait()
		}
	}
}

// tcPrepared returns the input a requested method and presort count on,
// cached for one (method, presort) at a time: a call with another pair
// replaces it.
func (g *Graph) tcPrepared(method TCMethod, presort TCPresort) (_ tcInput, err error) {
	defer catch(&err)
	if in := g.tri.p.Load(); in != nil && in.method == method && in.presort == presort {
		return *in, nil
	}
	a := g.patternInt64()
	if g.NSelfLoops() > 0 {
		offDiag := grb.MustMatrix[int64](a.Nrows(), a.Ncols())
		try(grb.SelectMatrix[int64, bool](offDiag, nil, nil, grb.OffDiag[int64](), a, nil))
		a = offDiag
	}
	work, skewed := tcShape(a)
	in := tcInput{method: method, presort: presort, plan: method}
	if method == TCAuto {
		in.plan = TCSandiaLL
		if skewed {
			in.plan = TCSandiaDot
		}
	}
	in.dir = tcResolvePresort(in.plan, presort, work > tcSortWorkFactor*int64(a.Nvals()), skewed)
	if in.dir != 0 {
		a, err = tcPermuteByDegree(a, in.dir)
		try(err)
	}
	in.nvals = a.Nvals()
	switch in.plan {
	case TCBurkhardt:
		in.a = a
	case TCCohen:
		in.a = a
		in.l, in.u, err = trilTriu(a)
	case TCSandiaLL:
		in.l, err = tcTriangle(a, grb.Tril[int64](-1))
	case TCSandiaUU:
		in.u, err = tcTriangle(a, grb.Triu[int64](1))
	default: // the dot pair reads both triangles
		in.l, in.u, err = trilTriu(a)
	}
	try(err)
	return g.tri.store(in), nil
}

// tcResolvePresort turns the requested presort into a concrete direction:
// +1 ascending, -1 descending, 0 none. saxpyPays and skewed are tcShape's
// verdicts on the input ordering.
func tcResolvePresort(method TCMethod, presort TCPresort, saxpyPays, skewed bool) int {
	if presort != TCSortAuto {
		return map[TCPresort]int{TCSortAscending: 1, TCSortDescending: -1}[presort]
	}
	// Sorting costs an O(nnz) rebuild; it pays only when the method's
	// triangle shape can exploit the ordering, so the full-matrix methods
	// never sort. The saxpy pair LL and UU, whose inner-index replay the
	// relabeling removes, sort when the natural ordering is actually bad;
	// the dot pair follows LAGraph's rule and sorts a skewed graph, so the
	// long rows its dots scatter are the few hubs'.
	prefer := map[TCMethod]int{TCSandiaLL: 1, TCSandiaDot: 1, TCSandiaUU: -1, TCSandiaULT: -1}[method]
	switch method {
	case TCSandiaLL, TCSandiaUU:
		if saxpyPays {
			return prefer
		}
	case TCSandiaDot, TCSandiaULT:
		if skewed {
			return prefer
		}
	}
	return 0
}

// tcShape reads the two facts the auto choices decide on from one pass
// over the rows of the off-diagonal adjacency a:
//   - work, the saxpy triangle work of the input ordering: for each vertex
//     the product of its below-diagonal and above-diagonal degrees,
//     summed. This is the exact multiply count of the LL formulation's
//     masked Gustavson pass (each entry k of row i's strict lower triangle
//     replays L(k,:), whose length is d₋(k); k appears as such an inner
//     index d₊(k) times) — a hub already first or last contributes
//     nothing, a hub mid-ordering ~deg²/4;
//   - skewed, LAGraph's skew test: more than 1 000 vertices, at least 10
//     entries per vertex, and a mean degree above 4× the median. The
//     degrees are exact (an empty row counts 0), not sampled, so the
//     answer is deterministic; the median is the sorted degrees' element
//     n/2, which is below mean/4 exactly when more than n/2 degrees are.
func tcShape(a *grb.Matrix[int64]) (work int64, skewed bool) {
	n, nvals := a.Nrows(), a.Nvals()
	light := 0 // vertices of degree below a quarter of the mean
	for v := 0; v < n; v++ {
		// a is off-diagonal, so one binary search splits the sorted row
		// into its below- and above-diagonal parts.
		row, _ := a.RowIndices(v) // v < n: cannot fail
		lo, _ := slices.BinarySearch(row, v)
		work += int64(lo) * int64(len(row)-lo)
		if 4*n*len(row) < nvals {
			light++
		}
	}
	return work, n > 1000 && nvals >= 10*n && light > n/2
}

// tcPermuteByDegree relabels the graph's vertices by degree (dir > 0
// ascending, dir < 0 descending), breaking ties on the original index so
// the permutation — and therefore every downstream kernel input — is
// deterministic. The relabeled graph is A(P,P), LAGraph's own formulation;
// the triangle count is invariant under relabeling, so it simply replaces
// the original.
func tcPermuteByDegree(a *grb.Matrix[int64], dir int) (_ *grb.Matrix[int64], err error) {
	defer catch(&err)
	n := a.Nrows()
	deg := make([]int, n)
	perm := make([]int, n) // perm[newIdx] = oldIdx
	for v := range perm {
		row, _ := a.RowIndices(v) // v < n: cannot fail
		deg[v], perm[v] = len(row), v
	}
	slices.SortFunc(perm, func(u, v int) int {
		if c := cmp.Compare(deg[u], deg[v]); c != 0 {
			return c * dir
		}
		return cmp.Compare(u, v)
	})
	p := grb.MustMatrix[int64](n, n)
	try(grb.ExtractMatrix[int64, bool](p, nil, nil, a, perm, perm, nil))
	return p, nil
}

// tcCount runs one concrete formulation over its prepared input: one
// masked multiply and its reduction.
func tcCount(in tcInput) (_ int64, err error) {
	defer catch(&err)
	gustavson := &grb.Descriptor{Method: grb.MxMGustavson}
	// The dot pair multiplies by a transposed triangle, whose rows are the
	// other triangle's columns; the mask keeps the output pattern sparse.
	dot := &grb.Descriptor{TranB: true, Method: grb.MxMDot}
	// C⟨M⟩ = A plus.pair B, divided by the number of times the formulation
	// counts each triangle.
	var m, a, b *grb.Matrix[int64]
	var d *grb.Descriptor
	times := int64(1)
	switch in.plan {
	case TCBurkhardt:
		m, a, b, times = in.a, in.a, in.a, 6
	case TCCohen:
		m, a, b, times = in.a, in.l, in.u, 2
	case TCSandiaLL:
		m, a, b, d = in.l, in.l, in.l, gustavson
	case TCSandiaUU:
		m, a, b, d = in.u, in.u, in.u, gustavson
	case TCSandiaDot: // L·Uᵀ masked by L
		m, a, b, d = in.l, in.l, in.u, dot
	case TCSandiaULT: // U·Lᵀ masked by U: the mirror image of SandiaLUT
		m, a, b, d = in.u, in.u, in.l, dot
	default:
		return 0, ErrBadArgument
	}
	c := grb.MustMatrix[int64](m.Nrows(), m.Ncols())
	try(grb.MxM(c, m, nil, grb.PlusPair[int64, int64, int64](), a, b, d))
	total, err := grb.ReduceMatrixToScalar(grb.PlusMonoid[int64](), c)
	try(err)
	return total / times, nil
}

// tcTriangle selects one strict triangle of a: Tril(-1) or Triu(1).
func tcTriangle(a *grb.Matrix[int64], keep grb.IndexUnaryOp[int64, bool]) (*grb.Matrix[int64], error) {
	t := grb.MustMatrix[int64](a.Nrows(), a.Ncols())
	return t, grb.SelectMatrix[int64, bool](t, nil, nil, keep, a, nil)
}

// trilTriu splits a into strict lower and strict upper triangles, for the
// formulations that read both.
func trilTriu(a *grb.Matrix[int64]) (_, _ *grb.Matrix[int64], err error) {
	defer catch(&err)
	l, err := tcTriangle(a, grb.Tril[int64](-1))
	try(err)
	u, err := tcTriangle(a, grb.Triu[int64](1))
	try(err)
	return l, u, nil
}

// KTruss computes the k-truss of an undirected graph: the maximal
// subgraph in which every edge supports at least k-2 triangles. It
// returns the truss adjacency with entries holding the per-edge support.
// Formulation of Davis [36]: iterate C⟨C⟩ = C plus.pair C, then drop
// edges with support < k-2.
func KTruss(g *Graph, k int, opts ...Option) (_ *grb.Matrix[int64], err error) {
	defer catch(&err)
	try(g.requireUndirected())
	if k < 3 {
		return nil, ErrBadArgument
	}
	cfg := newOptions(opts)
	lp := cfg.loop("ktruss")
	n := g.N()
	c := grb.MustMatrix[int64](n, n)
	try(grb.SelectMatrix[int64, bool](c, nil, nil, grb.OffDiag[int64](), g.patternInt64(), nil))
	support := int64(k - 2)
	plusPair := grb.PlusPair[int64, int64, int64]()
	for iter := 0; iter <= n; iter++ {
		try(lp.next())
		// C⟨C,replace⟩ = C plus.pair C : support of every surviving edge.
		z := grb.MustMatrix[int64](n, n)
		try(grb.MxM(z, c, nil, plusPair, c, c, grb.DescR))
		// Keep edges with enough support.
		try(grb.SelectMatrix[int64, bool](z, nil, nil, grb.ValueGE(support), z, nil))
		if z.Nvals() == c.Nvals() {
			// Also require identical pattern: counts equal suffices here
			// because z's pattern is a subset of c's.
			return z, nil
		}
		c = z
		if c.Nvals() == 0 {
			return c, nil
		}
	}
	return nil, ErrNoConvergence
}
