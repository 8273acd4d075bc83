package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"lagraph/internal/obs"
)

// TestRunTrace runs `lagraph run -trace` for the three traced algorithms
// and reads each file back as an obs.TraceDocument: the schema tag, at
// least two iteration records of the algorithm (each with iter > 0), at
// least one kernel op record, and for the BFS on a power-law graph a
// push→pull switch between consecutive iterations.
func TestRunTrace(t *testing.T) {
	for _, tc := range []struct {
		algo       string
		args       []string
		wantSwitch bool
	}{
		{"bfs", []string{"-kind", "powerlaw", "-scale", "12", "-undirected"}, true},
		{"sssp", []string{"-kind", "rmat", "-scale", "12", "-undirected", "-minw", "1", "-maxw", "10"}, false},
		{"bc", []string{"-kind", "rmat", "-scale", "12", "-undirected", "-k", "4"}, false},
	} {
		t.Run(tc.algo, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "trace.json")
			if err := cmdRun(append([]string{"-algo", tc.algo, "-trace", path}, tc.args...)); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var doc obs.TraceDocument
			if err := json.Unmarshal(raw, &doc); err != nil {
				t.Fatal(err)
			}
			if doc.Schema != obs.TraceSchema {
				t.Fatalf("schema %q, want %q", doc.Schema, obs.TraceSchema)
			}
			if len(doc.Ops) < 1 {
				t.Errorf("no op records")
			}
			var iters []obs.IterRecord
			for _, r := range doc.Iters {
				if r.Algo == tc.algo {
					iters = append(iters, r)
				}
			}
			if len(iters) < 2 {
				t.Fatalf("%d %s iteration records, want at least 2", len(iters), tc.algo)
			}
			switched := false
			for k, r := range iters {
				if r.Iter <= 0 {
					t.Errorf("iteration record with iter %d", r.Iter)
				}
				if k > 0 && iters[k-1].Dir == "push" && r.Dir == "pull" {
					switched = true
				}
			}
			if tc.wantSwitch && !switched {
				t.Errorf("no push→pull switch in %d iteration records", len(iters))
			}
		})
	}
}

// TestCLI runs the subcommands TestRunTrace does not: gen → info →
// convert .mtx → .grb → .mtx, whose round trip must reproduce the
// generated file byte for byte, and `run` of every algorithm on an RMAT
// scale-6 undirected weighted graph, one subtest each.
func TestCLI(t *testing.T) {
	dir := t.TempDir()
	mtx, bin, back := filepath.Join(dir, "g.mtx"), filepath.Join(dir, "g.grb"), filepath.Join(dir, "back.mtx")
	graph := []string{"-kind", "rmat", "-scale", "6", "-undirected", "-minw", "1", "-maxw", "10"}
	if err := cmdGen(append([]string{"-out", mtx}, graph...)); err != nil {
		t.Fatalf("gen: %v", err)
	}
	if err := cmdInfo([]string{"-in", mtx}); err != nil {
		t.Fatalf("info: %v", err)
	}
	for _, step := range [][2]string{{mtx, bin}, {bin, back}} {
		if err := cmdConvert([]string{"-in", step[0], "-out", step[1]}); err != nil {
			t.Fatalf("convert %s: %v", filepath.Base(step[0]), err)
		}
	}
	want, err := os.ReadFile(mtx)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("convert round trip through .grb changed the file (%d bytes → %d)", len(want), len(got))
	}

	for _, algo := range []string{
		"bfs", "parents", "sssp", "bellmanford", "pagerank", "tc", "ktruss",
		"cc", "mis", "coloring", "bc", "mcl", "peerpressure", "localcluster",
		"apsp", "kcore", "hits", "diameter", "cc-lp", "subgraph",
	} {
		t.Run(algo, func(t *testing.T) {
			if err := cmdRun(append([]string{"-algo", algo}, graph...)); err != nil {
				t.Fatal(err)
			}
		})
	}
}
