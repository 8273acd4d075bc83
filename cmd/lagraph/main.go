// lagraph is the command-line front end to the algorithm collection: it
// generates synthetic graphs, inspects Matrix Market files, and runs any
// algorithm of the §V list on a graph from disk or from a generator.
//
// Usage:
//
//	lagraph gen  -kind rmat -scale 12 -ef 16 -out g.mtx
//	lagraph info -in g.mtx
//	lagraph run  -algo bfs -src 0 -in g.mtx
//	lagraph run  -algo pagerank -kind rmat -scale 12
//	lagraph run  -algo bfs -kind powerlaw -scale 12 -trace trace.json
//
// Algorithms: bfs, parents, sssp, bellmanford, pagerank, tc, ktruss, cc,
// mis, coloring, bc, mcl, peerpressure, localcluster, apsp.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"lagraph/internal/gen"
	"lagraph/internal/grb"
	"lagraph/internal/lagraph"
	"lagraph/internal/mmio"
	"lagraph/internal/obs"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "info":
		err = cmdInfo(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "convert":
		err = cmdConvert(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		// A deadline hit gets its own exit status so scripts can tell
		// "too slow" from "wrong": 3 = canceled, 1 = any other failure.
		if errors.Is(err, grb.ErrCanceled) {
			fmt.Fprintln(os.Stderr, "lagraph: canceled:", err)
			os.Exit(3)
		}
		fmt.Fprintln(os.Stderr, "lagraph:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  lagraph gen     -kind rmat|er|grid|powerlaw -scale N [-ef N] [-seed N] [-undirected] -out FILE
  lagraph info    -in FILE
  lagraph run     -algo NAME (-in FILE | -kind ... -scale N) [-src N] [-k N] [-undirected] [-trace FILE] [-timeout DUR]
  lagraph convert -in FILE(.mtx|.grb) -out FILE(.mtx|.grb)`)
}

// cmdConvert moves a matrix between the Matrix Market text format and the
// library's binary serialization (.grb), in either direction based on the
// file extensions.
func cmdConvert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	in := fs.String("in", "", "input file (.mtx or .grb)")
	out := fs.String("out", "", "output file (.mtx or .grb)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("convert: -in and -out required")
	}
	var a *grb.Matrix[float64]
	switch {
	case strings.HasSuffix(*in, ".grb"):
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		a, err = grb.DeserializeMatrix[float64](f)
		if err != nil {
			return err
		}
	default:
		var err error
		a, _, err = mmio.ReadMatrixFile(*in)
		if err != nil {
			return err
		}
	}
	switch {
	case strings.HasSuffix(*out, ".grb"):
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := grb.SerializeMatrix(f, a); err != nil {
			return err
		}
	default:
		if err := mmio.WriteMatrixFile(*out, a); err != nil {
			return err
		}
	}
	fmt.Printf("converted %s → %s (%d×%d, %d entries)\n", *in, *out, a.Nrows(), a.Ncols(), a.Nvals())
	return nil
}

// graphFlags adds the shared graph-source flags to a FlagSet.
type graphFlags struct {
	in         *string
	kind       *string
	scale      *int
	ef         *int
	seed       *int64
	undirected *bool
	minW, maxW *float64
	alpha      *float64
}

func addGraphFlags(fs *flag.FlagSet) *graphFlags {
	return &graphFlags{
		in:         fs.String("in", "", "Matrix Market input file"),
		kind:       fs.String("kind", "rmat", "generator: rmat | er | grid | powerlaw"),
		scale:      fs.Int("scale", 10, "generator scale (2^scale vertices; grid side for grid)"),
		ef:         fs.Int("ef", 16, "edges per vertex"),
		seed:       fs.Int64("seed", 1, "generator seed"),
		undirected: fs.Bool("undirected", false, "treat/generate as undirected"),
		minW:       fs.Float64("minw", 0, "minimum edge weight (0 = unweighted)"),
		maxW:       fs.Float64("maxw", 0, "maximum edge weight"),
		alpha:      fs.Float64("alpha", 1.8, "power-law exponent (powerlaw generator)"),
	}
}

func (gf *graphFlags) load() (*lagraph.Graph, error) {
	kind := lagraph.Directed
	if *gf.undirected {
		kind = lagraph.Undirected
	}
	if *gf.in != "" {
		a, _, err := mmio.ReadMatrixFile(*gf.in)
		if err != nil {
			return nil, err
		}
		return lagraph.NewGraph(a, kind)
	}
	cfg := gen.Config{Seed: *gf.seed, Undirected: *gf.undirected, NoSelfLoops: true,
		MinWeight: *gf.minW, MaxWeight: *gf.maxW}
	e, err := gen.Named(*gf.kind, *gf.scale, *gf.ef, *gf.alpha, cfg)
	if err != nil {
		return nil, err
	}
	return lagraph.NewGraph(e.Matrix(), kind)
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	gf := addGraphFlags(fs)
	out := fs.String("out", "", "output Matrix Market file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("gen: -out required")
	}
	g, err := gf.load()
	if err != nil {
		return err
	}
	if err := mmio.WriteMatrixFile(*out, g.A); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d vertices, %d edges\n", *out, g.N(), g.NEdges())
	return nil
}

func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	gf := addGraphFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := gf.load()
	if err != nil {
		return err
	}
	s := lagraph.Measure(g)
	fmt.Printf("vertices:    %d\n", s.N)
	fmt.Printf("edges:       %d\n", s.NEdges)
	fmt.Printf("self loops:  %d\n", s.NSelfLoops)
	fmt.Printf("degree:      min %d, max %d, avg %.2f\n", s.MinDegree, s.MaxDegree, s.AvgDegree)
	fmt.Printf("density:     %.3e\n", s.Density)
	fmt.Printf("symmetric:   %v\n", g.IsSymmetric())
	hist := lagraph.DegreeHistogram(g)
	fmt.Printf("degree histogram (first 10 buckets): ")
	for d := 0; d < len(hist) && d < 10; d++ {
		fmt.Printf("%d:%d ", d, hist[d])
	}
	fmt.Println()
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	gf := addGraphFlags(fs)
	algo := fs.String("algo", "bfs", "algorithm to run")
	src := fs.Int("src", 0, "source vertex (bfs/sssp/bc/localcluster)")
	k := fs.Int("k", 3, "k (ktruss) / batch size (bc) / top-k (pagerank)")
	delta := fs.Float64("delta", 2, "delta (sssp delta-stepping)")
	trace := fs.String("trace", "", "write a JSON op/iteration trace to FILE (\"-\" = stdout)")
	traceCap := fs.Int("trace-cap", obs.DefaultTraceCapacity, "trace ring-buffer capacity (records kept per kind)")
	timeout := fs.Duration("timeout", 0, "abandon the run after this long (0 = no deadline); exit status 3")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := gf.load()
	if err != nil {
		return err
	}
	// The deadline covers the algorithm only, not graph loading: checked
	// between iterations, so cancellation lands within one iteration.
	var opts []lagraph.Option
	if *timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		opts = append(opts, lagraph.WithContext(ctx))
	}
	fmt.Printf("graph: %d vertices, %d edges\n", g.N(), g.NEdges())
	var tr *obs.Trace
	if *trace != "" {
		tr = obs.NewTrace(*traceCap)
		prev := obs.Set(tr)
		defer func() {
			obs.Set(prev)
			if err := writeTrace(*trace, tr); err != nil {
				fmt.Fprintln(os.Stderr, "lagraph: trace:", err)
			}
		}()
	}
	t0 := time.Now()
	defer func() { fmt.Printf("elapsed: %v\n", time.Since(t0)) }()

	switch strings.ToLower(*algo) {
	case "bfs":
		var stats lagraph.BFSStats
		levels, err := lagraph.BFSLevels(g, *src, append(opts, lagraph.WithStats(&stats))...)
		if err != nil {
			return err
		}
		fmt.Printf("bfs from %d: reached %d vertices, depth %d\n", *src, levels.Nvals(), stats.Depth)
		for i := range stats.FrontierSizes {
			dir := "push"
			if stats.Directions[i] == grb.DirPull {
				dir = "pull"
			}
			fmt.Printf("  iter %2d: frontier %7d  %s\n", i, stats.FrontierSizes[i], dir)
		}
	case "parents":
		parents, err := lagraph.BFSParents(g, *src, opts...)
		if err != nil {
			return err
		}
		fmt.Printf("bfs tree from %d: %d vertices\n", *src, parents.Nvals())
	case "sssp":
		d, err := lagraph.SSSP(g, *src, append(opts, lagraph.WithDelta(*delta))...)
		if err != nil {
			return err
		}
		mx, _ := grb.ReduceVectorToScalar(grb.MaxMonoid[float64](), d)
		fmt.Printf("sssp from %d: reached %d, max distance %.1f\n", *src, d.Nvals(), mx)
	case "bellmanford":
		d, err := lagraph.SSSPBellmanFord(g, *src, opts...)
		if err != nil {
			return err
		}
		fmt.Printf("bellman-ford from %d: reached %d\n", *src, d.Nvals())
	case "pagerank":
		res, err := lagraph.PageRankWith(g, append(opts,
			lagraph.WithDamping(0.85), lagraph.WithTolerance(1e-8), lagraph.WithMaxIter(100))...)
		if err != nil {
			return err
		}
		fmt.Printf("pagerank: %d iterations (converged=%v)\n", res.Iterations, res.Converged)
		for rank, v := range lagraph.TopK(res.Rank, *k) {
			score, _ := res.Rank.GetElement(v)
			fmt.Printf("  #%d vertex %d  %.6f\n", rank+1, v, score)
		}
	case "tc":
		c, err := lagraph.TriangleCount(g, lagraph.TCAuto, opts...)
		if err != nil {
			return err
		}
		fmt.Printf("triangles: %d\n", c)
	case "ktruss":
		tr, err := lagraph.KTruss(g, *k, opts...)
		if err != nil {
			return err
		}
		fmt.Printf("%d-truss: %d directed edges\n", *k, tr.Nvals())
	case "cc":
		labels, err := lagraph.ConnectedComponentsFastSV(g, opts...)
		if err != nil {
			return err
		}
		fmt.Printf("components: %d\n", lagraph.CountComponents(labels))
	case "mis":
		iset, err := lagraph.MIS(g, *gf.seed, opts...)
		if err != nil {
			return err
		}
		fmt.Printf("maximal independent set: %d vertices\n", iset.Nvals())
	case "coloring":
		_, used, err := lagraph.Coloring(g, *gf.seed)
		if err != nil {
			return err
		}
		fmt.Printf("colors used: %d\n", used)
	case "bc":
		sources := make([]int, 0, *k)
		for s := 0; s < *k && s < g.N(); s++ {
			sources = append(sources, (*src+s)%g.N())
		}
		bc, err := lagraph.BetweennessCentrality(g, sources, opts...)
		if err != nil {
			return err
		}
		for rank, v := range lagraph.TopK(bc, 5) {
			score, _ := bc.GetElement(v)
			fmt.Printf("  #%d vertex %d  bc %.1f\n", rank+1, v, score)
		}
	case "mcl":
		labels, err := lagraph.MarkovClustering(g, 2, 1e-6, 60)
		if err != nil {
			return err
		}
		fmt.Printf("markov clusters: %d\n", lagraph.CountComponents(labels))
	case "peerpressure":
		labels, err := lagraph.PeerPressure(g, 60)
		if err != nil {
			return err
		}
		fmt.Printf("peer-pressure clusters: %d\n", lagraph.CountComponents(labels))
	case "localcluster":
		res, err := lagraph.LocalCluster(g, *src, 0.15, 1e-5)
		if err != nil {
			return err
		}
		fmt.Printf("local cluster around %d: %d members, conductance %.3f\n",
			*src, len(res.Members), res.Conductance)
	case "apsp":
		d, err := lagraph.APSP(g, opts...)
		if err != nil {
			return err
		}
		fmt.Printf("apsp: %d finite pairs\n", d.Nvals())
	case "kcore":
		core, err := lagraph.KCore(g)
		if err != nil {
			return err
		}
		mx, _ := grb.ReduceVectorToScalar(grb.MaxMonoid[int64](), core)
		fmt.Printf("k-core: degeneracy %d\n", mx)
	case "hits":
		res, err := lagraph.HITSWith(g, append(opts,
			lagraph.WithTolerance(1e-8), lagraph.WithMaxIter(200))...)
		if err != nil {
			return err
		}
		fmt.Printf("hits: %d iterations (converged=%v)\n", res.Iterations, res.Converged)
		for rank, v := range lagraph.TopK(res.Authorities, *k) {
			score, _ := res.Authorities.GetElement(v)
			fmt.Printf("  authority #%d vertex %d  %.6f\n", rank+1, v, score)
		}
	case "diameter":
		d, from, to, err := lagraph.PseudoDiameter(g, *src, 8)
		if err != nil {
			return err
		}
		fmt.Printf("pseudo-diameter: %d (between %d and %d)\n", d, from, to)
	case "cc-lp":
		labels, err := lagraph.ConnectedComponentsLabelProp(g, opts...)
		if err != nil {
			return err
		}
		fmt.Printf("components (label prop): %d\n", lagraph.CountComponents(labels))
	case "subgraph":
		sc, err := lagraph.CountSubgraphs(g)
		if err != nil {
			return err
		}
		fmt.Printf("triangles: %d, wedges: %d\n", sc.TotalTriangles, sc.TotalWedges)
		_, global, err := lagraph.ClusteringCoefficient(g)
		if err != nil {
			return err
		}
		fmt.Printf("global clustering coefficient: %.4f\n", global)
	default:
		return fmt.Errorf("unknown algorithm %q", *algo)
	}
	return nil
}

// writeTrace dumps the collected trace as indented JSON ("-" = stdout).
func writeTrace(path string, tr *obs.Trace) error {
	if path == "-" {
		return tr.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
