package store

// The store's LGSNAP frames are format-transparent: a graph whose
// adjacency is held in any storage format (standard CSR, hypersparse,
// bitmap) snapshots to the same checksummed envelope structure, survives
// a save/load cycle byte-for-byte, and restores with both its entries and
// its format preference intact (re-serializing the restored graph is a
// fixed point).

import (
	"bytes"
	"fmt"
	"testing"

	"lagraph/internal/grb"
	"lagraph/internal/lagraph"
)

func TestStoreRoundTripAllFormats(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base := testGraph(t, 5)
	for _, fc := range []struct {
		name string
		f    grb.Format
	}{
		{"csr", grb.FormatCSR},
		{"hyper", grb.FormatHyper},
		{"bitmap", grb.FormatBitmap},
	} {
		t.Run(fc.name, func(t *testing.T) {
			a := base.A.Dup()
			a.SetFormat(fc.f)
			g, err := lagraph.NewGraph(a, lagraph.Undirected)
			if err != nil {
				t.Fatal(err)
			}
			payload := graphBytes(t, g)
			name := fmt.Sprintf("g-%s", fc.name)
			meta := Meta{Name: name, Kind: "undirected", NRows: int64(g.N()), NCols: int64(g.N()), NVals: int64(g.NEdges()), Generation: 1}
			if written, err := st.Save(meta, payload, nil); err != nil || !written {
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
			// Format preference survives: re-serializing the restored
			// graph reproduces the stored bytes exactly.
			if re := graphBytes(t, g2); !bytes.Equal(re, payload) {
				t.Fatal("restored graph does not re-serialize to the stored bytes")
			}
		})
	}
}
