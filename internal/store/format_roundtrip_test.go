package store

// The store's LGSNAP frames are form-transparent: a graph whose adjacency
// is held in any storage form (standard CSR, hypersparse, dense) snapshots
// to the same checksummed envelope structure, survives a save/load cycle
// byte-for-byte, and restores with its entries intact (re-serializing the
// restored graph is a fixed point). Each form is reached by content alone.

import (
	"bytes"
	"testing"

	"lagraph/internal/grb"
	"lagraph/internal/lagraph"
)

func TestStoreRoundTripAllFormats(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, fc := range []struct {
		name string
		a    func(t *testing.T) *grb.Matrix[float64]
	}{
		{"standard", func(t *testing.T) *grb.Matrix[float64] { return testGraph(t, 5).A }},
		{"hyper", hyperAdjacency},
		{"dense", denseAdjacency},
	} {
		t.Run(fc.name, func(t *testing.T) {
			g, err := lagraph.NewGraph(fc.a(t), lagraph.Undirected)
			if err != nil {
				t.Fatal(err)
			}
			payload := graphBytes(t, g)
			name := "g-" + fc.name
			meta := Meta{Name: name, Kind: "undirected", NRows: int64(g.N()), NCols: int64(g.N()), NVals: int64(g.NEdges()), Generation: 1}
			if written, err := st.Save(meta, payload, 0); err != nil || !written {
				t.Fatalf("save: written=%v err=%v", written, err)
			}
			_, gotPayload, err := st.Load(name)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotPayload, payload) {
				t.Fatal("stored payload differs from serialized graph")
			}
			g2, err := lagraph.ReadGraph(bytes.NewReader(gotPayload))
			if err != nil {
				t.Fatal(err)
			}
			if g2.N() != g.N() || g2.NEdges() != g.NEdges() || g2.Kind != g.Kind {
				t.Fatalf("restored graph differs: %d/%d vs %d/%d", g2.N(), g2.NEdges(), g.N(), g.NEdges())
			}
			i1, j1, x1 := g.A.ExtractTuples()
			i2, j2, x2 := g2.A.ExtractTuples()
			if len(i1) != len(i2) {
				t.Fatalf("entry count changed: %d vs %d", len(i2), len(i1))
			}
			for k := range i1 {
				if i1[k] != i2[k] || j1[k] != j2[k] || x1[k] != x2[k] {
					t.Fatalf("entry %d changed across the store round trip", k)
				}
			}
			if re := graphBytes(t, g2); !bytes.Equal(re, payload) {
				t.Fatal("restored graph does not re-serialize to the stored bytes")
			}
		})
	}
}

// hyperAdjacency is a 2^15-vertex ring over every 1024th vertex: 32 of
// 32768 rows non-empty, so the matrix is hypersparse by content.
func hyperAdjacency(t *testing.T) *grb.Matrix[float64] {
	const n, stride = 1 << 15, 1 << 10
	var is, js []int
	var xs []float64
	for v := 0; v < n; v += stride {
		w := (v + stride) % n
		is, js, xs = append(is, v, w), append(js, w, v), append(xs, 1, 1)
	}
	a := grb.MustMatrix[float64](n, n)
	if err := a.Build(is, js, xs, nil); err != nil {
		t.Fatal(err)
	}
	return a
}

// denseAdjacency is the complete 64-vertex graph after one in-place
// accumulating assign, which leaves it dense-held by the promotion rule.
func denseAdjacency(t *testing.T) *grb.Matrix[float64] {
	const n = 64
	var is, js []int
	var xs []float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				is, js, xs = append(is, i), append(js, j), append(xs, 1)
			}
		}
	}
	a := grb.MustMatrix[float64](n, n)
	if err := a.Build(is, js, xs, nil); err != nil {
		t.Fatal(err)
	}
	if err := grb.AssignMatrix[float64, bool](a, nil, grb.Plus[float64](), a.Dup(), grb.All, grb.All, nil); err != nil {
		t.Fatal(err)
	}
	return a
}
