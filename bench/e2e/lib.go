package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"lagraph/internal/baseline"
	"lagraph/internal/lagraph"
)

// kernel is one GAP kernel as the library phase times it: trial does
// identical work on every call and checks the cheap part of its answer.
// name is the prefix of its end-to-end metric (<name>_ms).
type kernel struct {
	name  string
	units int // sources (or whole runs) per trial; the metric is time ÷ units
	trial func() error
}

// candidateSample bounds how many vertices sourceCandidates probes.
const candidateSample = 256

// sourceCandidates returns the vertices a seed may draw traversal sources
// from: members of the largest component whose BFS depth is the commonest
// one in a fixed sample of that component. Equal depth means equal
// iteration counts, so two seeds time the same number of BFS levels (on a
// lattice the depth otherwise varies twofold with the source's position).
func sourceCandidates(bg *baseline.Graph) []int {
	comp := baseline.ConnectedComponents(bg)
	size := map[int]int{}
	best := -1
	for _, c := range comp {
		size[c]++
		if best < 0 || size[c] > size[best] || (size[c] == size[best] && c < best) {
			best = c
		}
	}
	var members []int
	for v, c := range comp {
		if c == best {
			members = append(members, v)
		}
	}
	rng := rand.New(rand.NewSource(topologySeed))
	rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
	if len(members) > candidateSample {
		members = members[:candidateSample]
	}
	byDepth := map[int][]int{}
	for _, v := range members {
		levels, _ := baseline.BFSLevels(bg, v)
		depth := 0
		for _, l := range levels {
			if l > depth {
				depth = l
			}
		}
		byDepth[depth] = append(byDepth[depth], v)
	}
	mode := -1
	for d, vs := range byDepth {
		if mode < 0 || len(vs) > len(byDepth[mode]) || (len(vs) == len(byDepth[mode]) && d < mode) {
			mode = d
		}
	}
	out := byDepth[mode]
	sort.Ints(out)
	return out
}

// drawSources picks k sources from candidates, distinct while they last.
func drawSources(rng *rand.Rand, candidates []int, k int) []int {
	perm := rng.Perm(len(candidates))
	out := make([]int, k)
	for i := range out {
		out[i] = candidates[perm[i%len(perm)]]
	}
	return out
}

// libInputs is everything the library phase runs on.
type libInputs struct {
	g       *lagraph.Graph
	bfsSrc  []int
	ssspSrc []int
	bcSrc   []int
	known   libKnown
}

// libKnown holds the oracle's answers the timed trials re-check cheaply.
type libKnown struct {
	reached    map[int]int // vertices reachable from each source
	triangles  int64
	components int
	prIters    int
}

// verifyLibrary checks every kernel against internal/baseline before any
// clock starts and returns the answers trials compare against. Each check
// counts as one attempted op.
func verifyLibrary(w *workload, in *libInputs, t *tally) {
	g := in.g
	bg := baseline.FromMatrix(g.A)
	n := g.N()
	in.known.reached = map[int]int{}

	for _, src := range in.bfsSrc {
		want, _ := baseline.BFSLevels(bg, src)
		got, err := lagraph.BFSLevels(g, src)
		ok := err == nil
		reached := 0
		for v := 0; ok && v < n; v++ {
			l, gerr := got.GetElement(v)
			switch {
			case want[v] < 0:
				ok = gerr != nil
			default:
				reached++
				ok = gerr == nil && int(l) == want[v]
			}
		}
		in.known.reached[src] = reached
		t.check(ok, "bfs levels from %d differ from baseline (err %v)", src, err)
	}
	for _, src := range in.ssspSrc {
		want := baseline.Dijkstra(bg, src)
		got, err := lagraph.SSSP(g, src)
		ok := err == nil
		reached := 0
		for v := 0; ok && v < n; v++ {
			d, gerr := got.GetElement(v)
			if math.IsInf(want[v], 1) {
				ok = gerr != nil
				continue
			}
			reached++
			ok = gerr == nil && math.Abs(d-want[v]) <= 1e-9
		}
		in.known.reached[src] = reached
		t.check(ok, "sssp distances from %d differ from Dijkstra (err %v)", src, err)
	}

	pr, err := lagraph.PageRankWith(g)
	if err == nil {
		want := baseline.PageRank(bg, 0.85, 100)
		l1 := 0.0
		for v := 0; v < n; v++ {
			r, _ := pr.Rank.GetElement(v)
			l1 += math.Abs(r - want[v])
		}
		// The residual stop at tol bounds the distance to the fixed point
		// by tol·d/(1−d) ≈ 5.7·tol.
		t.check(pr.Converged && l1 <= 1e-3, "pagerank L1 distance to baseline %g (converged %v)", l1, pr.Converged)
		in.known.prIters = pr.Iterations
	} else {
		t.check(false, "pagerank: %v", err)
	}

	labels, err := lagraph.ConnectedComponentsFastSV(g)
	ok := err == nil
	if ok {
		want := baseline.ConnectedComponents(bg)
		for v := 0; ok && v < n; v++ {
			l, gerr := labels.GetElement(v)
			ok = gerr == nil && int(l) == want[v]
		}
		in.known.components = lagraph.CountComponents(labels)
	}
	t.check(ok, "cc labels differ from union-find (err %v)", err)
	if w.components >= 0 {
		t.check(in.known.components == w.components, "cc found %d components, known answer %d", in.known.components, w.components)
	}

	tc, err := lagraph.TriangleCount(g, lagraph.TCAuto)
	in.known.triangles = baseline.TriangleCount(bg)
	t.check(err == nil && tc == in.known.triangles, "tc counted %d, baseline %d (err %v)", tc, in.known.triangles, err)
	if w.triangles >= 0 {
		t.check(tc == w.triangles, "tc counted %d, known answer %d", tc, w.triangles)
	}

	bc, err := lagraph.BetweennessCentrality(g, in.bcSrc)
	ok = err == nil
	if ok {
		want := baseline.BetweennessCentralitySources(bg, in.bcSrc)
		for v := 0; ok && v < n; v++ {
			b, _ := bc.GetElement(v) // absent entry: centrality 0
			ok = math.Abs(b-want[v]) <= 1e-6*math.Max(1, math.Abs(want[v]))
		}
	}
	t.check(ok, "bc differs from Brandes (err %v)", err)
}

// kernels binds the six GAP kernels to in. Every trial re-checks what is
// free to check (reach counts, the triangle and component counts, the
// PageRank iteration count), so a wrong answer under the clock is a failed
// op and not a fast one.
func kernels(w *workload, in *libInputs) []kernel {
	g, known := in.g, in.known
	fail := func(format string, a ...any) error { return fmt.Errorf(format, a...) }
	return []kernel{
		{"bfs", len(in.bfsSrc), func() error {
			for _, src := range in.bfsSrc {
				lv, err := lagraph.BFSLevels(g, src)
				if err != nil {
					return err
				}
				if lv.Nvals() != known.reached[src] {
					return fail("bfs from %d reached %d, want %d", src, lv.Nvals(), known.reached[src])
				}
			}
			return nil
		}},
		{"sssp", len(in.ssspSrc), func() error {
			for _, src := range in.ssspSrc {
				d, err := lagraph.SSSP(g, src)
				if err != nil {
					return err
				}
				if d.Nvals() != known.reached[src] {
					return fail("sssp from %d reached %d, want %d", src, d.Nvals(), known.reached[src])
				}
			}
			return nil
		}},
		{"pagerank", w.prRuns, func() error {
			for i := 0; i < w.prRuns; i++ {
				pr, err := lagraph.PageRankWith(g)
				if err != nil {
					return err
				}
				if pr.Iterations != known.prIters {
					return fail("pagerank took %d iterations, want %d", pr.Iterations, known.prIters)
				}
			}
			return nil
		}},
		{"cc", w.ccRuns, func() error {
			for i := 0; i < w.ccRuns; i++ {
				labels, err := lagraph.ConnectedComponentsFastSV(g)
				if err != nil {
					return err
				}
				if c := lagraph.CountComponents(labels); c != known.components {
					return fail("cc found %d components, want %d", c, known.components)
				}
			}
			return nil
		}},
		{"tc", w.tcRuns, func() error {
			for i := 0; i < w.tcRuns; i++ {
				c, err := lagraph.TriangleCount(g, lagraph.TCAuto)
				if err != nil {
					return err
				}
				if c != known.triangles {
					return fail("tc counted %d, want %d", c, known.triangles)
				}
			}
			return nil
		}},
		{"bc", len(in.bcSrc), func() error {
			_, err := lagraph.BetweennessCentrality(g, in.bcSrc)
			return err
		}},
	}
}

// libPhase times the kernels in round-robin rounds: bfs, sssp, pagerank, cc,
// tc, bc, repeat. Round-robin spreads a burst of interference from a
// neighbour over all six metrics instead of landing it on one, and spreads
// every metric's trials over the whole run; the collection before each
// round keeps one round's garbage from being charged to the next.
type libPhase struct {
	ks     []kernel
	t      *tally
	trials map[string][]float64 // kernel → trial times, ms per unit
}

// round runs every kernel's trial once.
func (p *libPhase) round() {
	runtime.GC()
	for _, k := range p.ks {
		t0 := time.Now()
		err := k.trial()
		ms := float64(time.Since(t0)) / float64(time.Millisecond)
		p.t.check(err == nil, "%s trial: %v", k.name, err)
		p.trials[k.name] = append(p.trials[k.name], ms/float64(k.units))
	}
}

// roundsUntil runs rounds until deadline, and at least one.
func (p *libPhase) roundsUntil(deadline time.Time) {
	for {
		p.round()
		if !time.Now().Before(deadline) {
			return
		}
	}
}

// buildLibraryGraph generates and assembles the workload's library graph and
// reports how long each step took.
func buildLibraryGraph(w *workload, toy bool) (g *lagraph.Graph, genMS, buildMS float64) {
	t0 := time.Now()
	el := w.lib(toy)
	t1 := time.Now()
	g = lagraph.FromEdgeList(el, lagraph.Undirected)
	g.A.Wait()
	return g, msBetween(t0, t1), msBetween(t1, time.Now())
}

func msBetween(a, b time.Time) float64 { return float64(b.Sub(a)) / float64(time.Millisecond) }
