// Golden-file suite: algorithm results on a fixed generator graph,
// stored as checksummed store frames under testdata/golden/. Each run
// recomputes every result at SetParallelism(1) and SetParallelism(8),
// asserts the two are byte-identical (the repo's cross-parallelism
// determinism contract), and then compares against the committed golden
// frame — so a kernel change that silently perturbs results fails CI
// with a bitwise diff, and a corrupted testdata file fails its CRC
// before it can masquerade as a reference.
//
// Regenerate after an intentional semantic change:
//
//	go test ./internal/lagraph -run TestGolden -update-golden
//
// This file lives in package lagraph_test (external) because it imports
// internal/store, which itself depends on lagraph via the catalog.
package lagraph_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"lagraph/internal/gen"
	"lagraph/internal/grb"
	"lagraph/internal/lagraph"
	"lagraph/internal/obs"
	"lagraph/internal/store"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden frames from current results")

// goldenGraph is the fixed fixture every golden case runs on: scale-8
// power-law, seed 42, undirected, no self loops. Changing any of these
// parameters invalidates every golden file.
func goldenGraph(t testing.TB) *lagraph.Graph {
	t.Helper()
	n := 1 << 8
	e := gen.PowerLaw(n, 8*n, 1.8, gen.Config{Seed: 42, Undirected: true, NoSelfLoops: true})
	g, err := lagraph.NewGraph(e.Matrix(), lagraph.Undirected)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// goldenDelta applies the fixed insert-only mutation every incremental
// golden case uses: bridge edges between far-apart vertices plus a
// duplicate and a self-loop, mirrored because the fixture is undirected.
// Returns the Delta record the warm starts consume.
func goldenDelta(g *lagraph.Graph) (*lagraph.Delta, error) {
	src := []int{3, 100, 3, 7}
	dst := []int{200, 50, 200, 7}
	var is, js []int
	var xs []float64
	for k := range src {
		is, js, xs = append(is, src[k]), append(js, dst[k]), append(xs, 1)
		if src[k] != dst[k] {
			is, js, xs = append(is, dst[k]), append(js, src[k]), append(xs, 1)
		}
	}
	if err := g.A.SetElements(is, js, xs, nil); err != nil {
		return nil, err
	}
	g.InvalidateCache()
	return &lagraph.Delta{AddSrc: src, AddDst: dst}, nil
}

// sameBytes asserts two vectors serialize identically (the bitwise
// equivalence contract of the exact warm starts).
func sameBytes[T any](a, b *grb.Vector[T]) error {
	var ab, bb bytes.Buffer
	if err := grb.SerializeVector(&ab, a); err != nil {
		return err
	}
	if err := grb.SerializeVector(&bb, b); err != nil {
		return err
	}
	if !bytes.Equal(ab.Bytes(), bb.Bytes()) {
		return fmt.Errorf("vectors differ (%d vs %d bytes)", ab.Len(), bb.Len())
	}
	return nil
}

// goldenCases maps a stable case name to a function computing the
// serialized result bytes. Results serialize through grb's gob codec
// (vectors) or fixed-width little-endian (scalars, and BC's vectors through
// TupleBytes: gob numbers types in the order a process first meets them,
// and a vector case sorting before the others would shift their frames)
// so "byte-identical" is meaningful across runs and parallelism levels.
func goldenCases() map[string]func(g *lagraph.Graph) ([]byte, error) {
	serialize := func(err error, write func(w *bytes.Buffer) error) ([]byte, error) {
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if werr := write(&buf); werr != nil {
			return nil, werr
		}
		return buf.Bytes(), nil
	}
	return map[string]func(g *lagraph.Graph) ([]byte, error){
		"bfs-levels-src0": func(g *lagraph.Graph) ([]byte, error) {
			v, err := lagraph.BFSLevels(g, 0)
			return serialize(err, func(w *bytes.Buffer) error { return grb.SerializeVector(w, v) })
		},
		"bfs-parents-src0": func(g *lagraph.Graph) ([]byte, error) {
			v, err := lagraph.BFSParents(g, 0)
			return serialize(err, func(w *bytes.Buffer) error { return grb.SerializeVector(w, v) })
		},
		"sssp-src0": func(g *lagraph.Graph) ([]byte, error) {
			v, err := lagraph.SSSP(g, 0)
			return serialize(err, func(w *bytes.Buffer) error { return grb.SerializeVector(w, v) })
		},
		"pagerank": func(g *lagraph.Graph) ([]byte, error) {
			r, err := lagraph.PageRankWith(g, lagraph.WithDamping(0.85), lagraph.WithTolerance(1e-9), lagraph.WithMaxIter(200))
			if err != nil {
				return nil, err
			}
			return serialize(nil, func(w *bytes.Buffer) error { return grb.SerializeVector(w, r.Rank) })
		},
		"cc-fastsv": func(g *lagraph.Graph) ([]byte, error) {
			v, err := lagraph.ConnectedComponentsFastSV(g)
			return serialize(err, func(w *bytes.Buffer) error { return grb.SerializeVector(w, v) })
		},
		// Incremental-mode frames: each applies the fixed goldenDelta to
		// the fixture, warm-starts from the pre-delta result, and (for the
		// exact algorithms) asserts agreement with a full recompute before
		// serializing — so the committed frame pins the warm-start path's
		// bytes across kernel changes, at both parallelism levels.
		"cc-incremental": func(g *lagraph.Graph) ([]byte, error) {
			prior, err := lagraph.ConnectedComponentsWith(g)
			if err != nil {
				return nil, err
			}
			delta, err := goldenDelta(g)
			if err != nil {
				return nil, err
			}
			inc, err := lagraph.IncrementalCC(g, prior.Labels, delta)
			if err != nil {
				return nil, err
			}
			full, err := lagraph.ConnectedComponentsWith(g)
			if err != nil {
				return nil, err
			}
			if err := sameBytes(inc.Labels, full.Labels); err != nil {
				return nil, fmt.Errorf("incremental cc vs full: %w", err)
			}
			return serialize(nil, func(w *bytes.Buffer) error { return grb.SerializeVector(w, inc.Labels) })
		},
		"bfs-levels-incremental-src0": func(g *lagraph.Graph) ([]byte, error) {
			prior, err := lagraph.BFSLevels(g, 0)
			if err != nil {
				return nil, err
			}
			delta, err := goldenDelta(g)
			if err != nil {
				return nil, err
			}
			repaired, _, err := lagraph.IncrementalBFSLevels(g, 0, prior, delta)
			if err != nil {
				return nil, err
			}
			full, err := lagraph.BFSLevels(g, 0)
			if err != nil {
				return nil, err
			}
			if err := sameBytes(repaired, full); err != nil {
				return nil, fmt.Errorf("incremental bfs vs full: %w", err)
			}
			return serialize(nil, func(w *bytes.Buffer) error { return grb.SerializeVector(w, repaired) })
		},
		"pagerank-warm": func(g *lagraph.Graph) ([]byte, error) {
			opts := []lagraph.Option{lagraph.WithDamping(0.85), lagraph.WithTolerance(1e-9), lagraph.WithMaxIter(200)}
			prior, err := lagraph.PageRankWith(g, opts...)
			if err != nil {
				return nil, err
			}
			if _, err := goldenDelta(g); err != nil {
				return nil, err
			}
			warm, err := lagraph.PageRankWarm(g, prior.Rank, opts...)
			if err != nil {
				return nil, err
			}
			return serialize(nil, func(w *bytes.Buffer) error { return grb.SerializeVector(w, warm.Rank) })
		},
		// Betweenness from a batch of sources, and from a batch that names
		// sources twice (their rows must add up in source order).
		"bc-4src": func(g *lagraph.Graph) ([]byte, error) {
			v, err := lagraph.BetweennessCentrality(g, []int{0, 5, 77, 200})
			if err != nil {
				return nil, err
			}
			return lagraph.TupleBytes(v).Bytes(), nil
		},
		"bc-repeated-src": func(g *lagraph.Graph) ([]byte, error) {
			v, err := lagraph.BetweennessCentrality(g, []int{77, 5, 77, 0, 5})
			if err != nil {
				return nil, err
			}
			return lagraph.TupleBytes(v).Bytes(), nil
		},
		"tc-burkhardt": func(g *lagraph.Graph) ([]byte, error) {
			n, err := lagraph.TriangleCount(g, lagraph.TCBurkhardt)
			if err != nil {
				return nil, err
			}
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], uint64(n))
			return b[:], nil
		},
	}
}

// computeAt runs one golden case at a given parallelism level on a fresh
// graph (fresh so lazy caches built at another level cannot leak in).
func computeAt(t *testing.T, p int, fn func(g *lagraph.Graph) ([]byte, error)) []byte {
	t.Helper()
	prev := grb.SetParallelism(p)
	defer grb.SetParallelism(prev)
	out, err := fn(goldenGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestGolden(t *testing.T) {
	cases := goldenCases()
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)

	dir := filepath.Join("testdata", "golden")
	if *updateGolden {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}

	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			serial := computeAt(t, 1, cases[name])
			parallel := computeAt(t, 8, cases[name])
			if !bytes.Equal(serial, parallel) {
				t.Fatalf("%s: SetParallelism(1) and SetParallelism(8) results differ (%d vs %d bytes)",
					name, len(serial), len(parallel))
			}

			path := filepath.Join(dir, name+".snap")
			if *updateGolden {
				var frame bytes.Buffer
				meta := store.Meta{Name: name, Kind: "golden", NVals: int64(len(serial))}
				if err := store.WriteFrame(&frame, meta, serial); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, frame.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}

			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (regenerate with -update-golden): %v", err)
			}
			meta, want, err := store.ReadFrame(bytes.NewReader(raw))
			if err != nil {
				t.Fatalf("golden file corrupt: %v", err)
			}
			if meta.Name != name || meta.Kind != "golden" {
				t.Fatalf("golden file metadata %+v does not match case %q", meta, name)
			}
			if !bytes.Equal(serial, want) {
				t.Fatalf("%s: result (%d bytes) differs from golden frame (%d bytes); if the change is intentional, rerun with -update-golden",
					name, len(serial), len(want))
			}
		})
	}
}

// iterLog is an observer that keeps every IterRecord with its duration
// zeroed: its clock never moves, and Iter clears DurNanos anyway, so what
// it holds is a function of the algorithm's decisions alone.
type iterLog struct {
	mu    sync.Mutex
	iters []obs.IterRecord
}

func (l *iterLog) Now() int64      { return 0 }
func (l *iterLog) Op(obs.OpRecord) {}
func (l *iterLog) Iter(r obs.IterRecord) {
	r.DurNanos = 0
	l.mu.Lock()
	l.iters = append(l.iters, r)
	l.mu.Unlock()
}

// iterCases maps a traced algorithm to a run that reports through the
// observer it is given. Each runs on a fresh golden graph.
func iterCases() map[string]func(g *lagraph.Graph, ob lagraph.Option) error {
	sources := []int{0, 5, 77, 200}
	prOpts := []lagraph.Option{lagraph.WithDamping(0.85), lagraph.WithTolerance(1e-9), lagraph.WithMaxIter(200)}
	return map[string]func(g *lagraph.Graph, ob lagraph.Option) error{
		"bfs-levels":  func(g *lagraph.Graph, ob lagraph.Option) error { _, err := lagraph.BFSLevels(g, 0, ob); return err },
		"bfs-parents": func(g *lagraph.Graph, ob lagraph.Option) error { _, err := lagraph.BFSParents(g, 0, ob); return err },
		"msbfs": func(g *lagraph.Graph, ob lagraph.Option) error {
			_, err := lagraph.MSBFSLevels(g, sources, ob)
			return err
		},
		"bc": func(g *lagraph.Graph, ob lagraph.Option) error {
			_, err := lagraph.BetweennessCentrality(g, sources, ob)
			return err
		},
		"sssp": func(g *lagraph.Graph, ob lagraph.Option) error { _, err := lagraph.SSSP(g, 0, ob); return err },
		"sssp-bellman": func(g *lagraph.Graph, ob lagraph.Option) error {
			_, err := lagraph.SSSPBellmanFord(g, 0, ob)
			return err
		},
		"pagerank": func(g *lagraph.Graph, ob lagraph.Option) error {
			_, err := lagraph.PageRankWith(g, append(prOpts, ob)...)
			return err
		},
		"hits": func(g *lagraph.Graph, ob lagraph.Option) error { _, err := lagraph.HITSWith(g, ob); return err },
		"cc-fastsv": func(g *lagraph.Graph, ob lagraph.Option) error {
			_, err := lagraph.ConnectedComponentsWith(g, ob)
			return err
		},
		"mis": func(g *lagraph.Graph, ob lagraph.Option) error { _, err := lagraph.MIS(g, 1, ob); return err },
		"tc": func(g *lagraph.Graph, ob lagraph.Option) error {
			_, err := lagraph.TriangleCount(g, lagraph.TCAuto, ob)
			return err
		},
		"pagerank-warm": func(g *lagraph.Graph, ob lagraph.Option) error {
			prior, err := lagraph.PageRankWith(g, prOpts...)
			if err != nil {
				return err
			}
			if _, err := goldenDelta(g); err != nil {
				return err
			}
			_, err = lagraph.PageRankWarm(g, prior.Rank, append(prOpts, ob)...)
			return err
		},
		// The repair bridges vertex 0 to the deepest vertex its BFS
		// reached, so levels fall for rounds (goldenDelta moves none from 0).
		"bfs-levels-incremental": func(g *lagraph.Graph, ob lagraph.Option) error {
			prior, err := lagraph.BFSLevels(g, 0)
			if err != nil {
				return err
			}
			is, xs := prior.ExtractTuples()
			far := 0
			for k := range is {
				if xs[k] > xs[far] {
					far = k
				}
			}
			if err := g.A.SetElements([]int{0, is[far]}, []int{is[far], 0}, []float64{1, 1}, nil); err != nil {
				return err
			}
			g.InvalidateCache()
			delta := &lagraph.Delta{AddSrc: []int{0}, AddDst: []int{is[far]}}
			_, _, err = lagraph.IncrementalBFSLevels(g, 0, prior, delta, ob)
			return err
		},
	}
}

// iterGraphs are the two fixtures the iteration records are pinned on: the
// golden power-law graph, whose traversals end in three levels, and a
// weighted 16×16 lattice, whose run for thirty.
var iterGraphs = map[string]func(t testing.TB) *lagraph.Graph{
	"powerlaw": goldenGraph,
	"lattice": func(t testing.TB) *lagraph.Graph {
		e := gen.Grid2D(16, 16, gen.Config{Seed: 42, Undirected: true, NoSelfLoops: true, MinWeight: 1, MaxWeight: 10})
		g, err := lagraph.NewGraph(e.Matrix(), lagraph.Undirected)
		if err != nil {
			t.Fatal(err)
		}
		return g
	},
}

// iterDigest runs one case on a fresh graph at parallelism p and returns
// the SHA-256 of its IterRecord stream, JSON-encoded, with the record count.
func iterDigest(t *testing.T, p int, graph func(testing.TB) *lagraph.Graph, run func(g *lagraph.Graph, ob lagraph.Option) error) string {
	t.Helper()
	prev := grb.SetParallelism(p)
	defer grb.SetParallelism(prev)
	var log iterLog
	if err := run(graph(t), lagraph.WithObserver(&log)); err != nil {
		t.Fatal(err)
	}
	if len(log.iters) == 0 {
		t.Fatal("no iteration records")
	}
	js, err := json.Marshal(log.iters)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x %d", sha256.Sum256(js), len(log.iters))
}

// TestGoldenIterRecords pins what every traced algorithm reports per
// iteration — Iter, Frontier, Dir, Residual, Warm, with DurNanos zeroed —
// as one digest per algorithm and fixture in
// testdata/golden/iter-records.txt, the same
// at SetParallelism(1) and SetParallelism(8). TestGolden pins results; this
// pins the decisions a trace exposes. -update-golden rewrites the file.
func TestGoldenIterRecords(t *testing.T) {
	cases := iterCases()
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)
	var lines []string
	for _, name := range names {
		for _, gname := range []string{"powerlaw", "lattice"} {
			serial := iterDigest(t, 1, iterGraphs[gname], cases[name])
			if parallel := iterDigest(t, 8, iterGraphs[gname], cases[name]); parallel != serial {
				t.Errorf("%s on %s: iteration records differ between SetParallelism(1) and (8): %s vs %s", name, gname, serial, parallel)
			}
			lines = append(lines, name+"/"+gname+" "+serial)
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "golden", "iter-records.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update-golden): %v", err)
	}
	if got != string(want) {
		t.Errorf("iteration records differ from %s; if the change is intentional, rerun with -update-golden\ngot:\n%swant:\n%s", path, got, want)
	}
}
