package store

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"lagraph/internal/catalog"
	"lagraph/internal/grb"
	"lagraph/internal/lagraph"
	"lagraph/internal/wal"
)

func TestEdgeBatchCodecRoundTrip(t *testing.T) {
	for _, b := range []EdgeBatch{
		{Name: "g", Dup: "", Ops: []EdgeOp{{Src: 0, Dst: 1, Weight: 2.5}}},
		{Name: "weird name / with bytes", Dup: "sum", Ops: []EdgeOp{
			{Src: 10, Dst: 20, Weight: -1},
			{Remove: true, Src: 3, Dst: 4},
			{Src: 0, Dst: 0, Weight: math.Inf(1)},
		}},
		{Name: "m", Dup: "min", Ops: []EdgeOp{{Src: 1 << 20, Dst: 1, Weight: 0}}},
		{Name: "x", Dup: "max", Ops: []EdgeOp{{Remove: true, Src: 0, Dst: 0}}},
	} {
		enc, err := b.Encode()
		if err != nil {
			t.Fatalf("encode %+v: %v", b, err)
		}
		got, err := DecodeEdgeBatch(enc)
		if err != nil {
			t.Fatalf("decode %+v: %v", b, err)
		}
		want := b
		if want.Dup == "" {
			want.Dup = "last" // canonical name on the wire
		}
		if got.Name != want.Name || got.Dup != want.Dup || len(got.Ops) != len(want.Ops) {
			t.Fatalf("round trip: got %+v want %+v", got, want)
		}
		for k := range got.Ops {
			if got.Ops[k] != want.Ops[k] {
				t.Fatalf("op %d: got %+v want %+v", k, got.Ops[k], want.Ops[k])
			}
		}
	}
}

func TestEdgeBatchEncodeRejectsBadInput(t *testing.T) {
	if _, err := (EdgeBatch{Name: "", Ops: []EdgeOp{{}}}).Encode(); !errors.Is(err, lagraph.ErrBadArgument) {
		t.Fatalf("empty name: %v", err)
	}
	if _, err := (EdgeBatch{Name: "g"}).Encode(); !errors.Is(err, lagraph.ErrBadArgument) {
		t.Fatalf("empty ops: %v", err)
	}
	if _, err := (EdgeBatch{Name: "g", Dup: "median", Ops: []EdgeOp{{}}}).Encode(); !errors.Is(err, lagraph.ErrBadArgument) {
		t.Fatalf("bad dup: %v", err)
	}
	if _, err := (EdgeBatch{Name: "g", Ops: []EdgeOp{{Src: -1}}}).Encode(); !errors.Is(err, lagraph.ErrBadArgument) {
		t.Fatalf("negative vertex: %v", err)
	}
}

func TestDecodeEdgeBatchRejectsDamage(t *testing.T) {
	good, err := EdgeBatch{Name: "g", Dup: "sum", Ops: []EdgeOp{
		{Src: 1, Dst: 2, Weight: 3}, {Remove: true, Src: 2, Dst: 1},
	}}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":          {},
		"bad version":    append([]byte{99}, good[1:]...),
		"truncated":      good[:len(good)-3],
		"trailing bytes": append(append([]byte{}, good...), 0xFF),
	}
	for name, data := range cases {
		if _, err := DecodeEdgeBatch(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: want ErrCorrupt, got %v", name, err)
		}
	}
}

// applyTestGraph builds a small directed graph behind a catalog entry.
func applyTestGraph(t *testing.T, n int, kind lagraph.Kind) (*catalog.Catalog, *catalog.Entry) {
	t.Helper()
	a, err := grb.NewMatrix[float64](n, n)
	if err != nil {
		t.Fatal(err)
	}
	g, err := lagraph.NewGraph(a, kind)
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	e, err := cat.Add("g", g)
	if err != nil {
		t.Fatal(err)
	}
	return cat, e
}

func TestApplyEdgeBatchDirected(t *testing.T) {
	_, e := applyTestGraph(t, 8, lagraph.Directed)
	err := e.Ingest(func(g *lagraph.Graph) (bool, error) {
		return true, ApplyEdgeBatch(g, EdgeBatch{Name: "g", Ops: []EdgeOp{
			{Src: 0, Dst: 1, Weight: 5},
			{Src: 1, Dst: 2, Weight: 1},
			{Remove: true, Src: 1, Dst: 2},
			{Src: 3, Dst: 4, Weight: 2},
		}})
	})
	if err != nil {
		t.Fatal(err)
	}
	p := e.Properties()
	if p.NEdges != 2 {
		t.Fatalf("NEdges = %d, want 2", p.NEdges)
	}
}

func TestApplyEdgeBatchMirrorsUndirected(t *testing.T) {
	_, e := applyTestGraph(t, 8, lagraph.Undirected)
	err := e.Ingest(func(g *lagraph.Graph) (bool, error) {
		return true, ApplyEdgeBatch(g, EdgeBatch{Name: "g", Ops: []EdgeOp{
			{Src: 0, Dst: 1, Weight: 5},
			{Src: 2, Dst: 2, Weight: 1}, // self-loop: no mirror
		}})
	})
	if err != nil {
		t.Fatal(err)
	}
	var vals [3]float64
	verr := e.View(func(g *lagraph.Graph) error {
		v01, _ := g.A.GetElement(0, 1)
		v10, _ := g.A.GetElement(1, 0)
		v22, _ := g.A.GetElement(2, 2)
		vals = [3]float64{v01, v10, v22}
		return nil
	})
	if verr != nil {
		t.Fatal(verr)
	}
	if vals != [3]float64{5, 5, 1} {
		t.Fatalf("mirrored values = %v, want [5 5 1]", vals)
	}
	if p := e.Properties(); !p.Symmetric {
		t.Fatalf("undirected ingest broke symmetry: %+v", p)
	}
}

func TestApplyEdgeBatchValidatesWholeBatchFirst(t *testing.T) {
	_, e := applyTestGraph(t, 4, lagraph.Directed)
	err := e.Ingest(func(g *lagraph.Graph) (bool, error) {
		aerr := ApplyEdgeBatch(g, EdgeBatch{Name: "g", Ops: []EdgeOp{
			{Src: 0, Dst: 1, Weight: 1},
			{Src: 9, Dst: 0, Weight: 1}, // out of range
		}})
		return false, aerr
	})
	if !errors.Is(err, lagraph.ErrBadArgument) {
		t.Fatalf("want ErrBadArgument, got %v", err)
	}
	if p := e.Properties(); p.NEdges != 0 {
		t.Fatalf("rejected batch landed edges: %+v", p)
	}
}

// ingestBatch journals and applies one batch the way the service does:
// journal first (write-ahead), then apply, then advance the mark.
func ingestBatch(t *testing.T, p *Persister, e *catalog.Entry, b EdgeBatch) uint64 {
	t.Helper()
	var lsn uint64
	err := e.Ingest(func(g *lagraph.Graph) (bool, error) {
		var jerr error
		lsn, jerr = p.JournalEdges(b)
		if jerr != nil {
			return false, jerr
		}
		if aerr := ApplyEdgeBatch(g, b); aerr != nil {
			return false, aerr
		}
		if lsn > 0 {
			e.SetJournalSeq(lsn)
		}
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return lsn
}

func TestSnapshotPlusWALReplayEqualsPreCrashGraph(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	jl, err := wal.Open(dir+"/wal", wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	p := NewPersister(st, cat)
	p.AttachWAL(jl)

	g := testGraph(t, 5)
	e, err := cat.Add("g", g)
	if err != nil {
		t.Fatal(err)
	}
	// Baseline snapshot, then journaled mutations on top of it.
	if _, err := p.SnapshotOne("g"); err != nil {
		t.Fatal(err)
	}
	ingestBatch(t, p, e, EdgeBatch{Name: "g", Ops: []EdgeOp{
		{Src: 0, Dst: 30, Weight: 9}, {Src: 1, Dst: 31, Weight: 8},
	}})
	// A mid-stream snapshot: later records must replay on top of it.
	if _, err := p.SnapshotOne("g"); err != nil {
		t.Fatal(err)
	}
	ingestBatch(t, p, e, EdgeBatch{Name: "g", Dup: "sum", Ops: []EdgeOp{
		{Src: 0, Dst: 30, Weight: 1}, // accumulates onto the snapshotted 9
	}})
	ingestBatch(t, p, e, EdgeBatch{Name: "g", Ops: []EdgeOp{
		{Remove: true, Src: 1, Dst: 31},
	}})
	want := graphBytes(t, mustSnapshotGraph(t, e))

	// Crash: no flush of the post-snapshot batches. Reopen everything.
	jl.Close()
	cat2 := catalog.New()
	p2 := NewPersister(Must(Open(dir)), cat2)
	jl2, err := wal.Open(dir+"/wal", wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	p2.AttachWAL(jl2)
	if _, err := p2.LoadAll(); err != nil {
		t.Fatal(err)
	}
	rs := p2.ReplayStats()
	if rs.Applied != 2 || rs.SkippedFloor != 1 {
		t.Fatalf("replay stats = %+v, want 2 applied + 1 below floor", rs)
	}
	e2, err := cat2.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	got := graphBytes(t, mustSnapshotGraph(t, e2))
	if !bytes.Equal(got, want) {
		t.Fatal("snapshot + WAL replay is not bitwise identical to the pre-crash graph")
	}
	if e2.JournalSeq() != 3 {
		t.Fatalf("recovered journal seq = %d, want 3", e2.JournalSeq())
	}
	jl2.Close()
}

// mustSnapshotGraph extracts the entry's graph via View for comparison.
func mustSnapshotGraph(t *testing.T, e *catalog.Entry) *lagraph.Graph {
	t.Helper()
	var out *lagraph.Graph
	if err := e.View(func(g *lagraph.Graph) error { out = g; return nil }); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestWALRecordsForDroppedGraphSkipOnReplay(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	jl, err := wal.Open(dir+"/wal", wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	p := NewPersister(st, cat)
	p.AttachWAL(jl)
	e, err := cat.Add("doomed", testGraph(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.SnapshotOne("doomed"); err != nil {
		t.Fatal(err)
	}
	ingestBatch(t, p, e, EdgeBatch{Name: "doomed", Ops: []EdgeOp{{Src: 0, Dst: 1, Weight: 1}}})
	if err := cat.Drop("doomed"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Remove("doomed"); err != nil {
		t.Fatal(err)
	}
	jl.Close()

	cat2 := catalog.New()
	p2 := NewPersister(Must(Open(dir)), cat2)
	jl2, err := wal.Open(dir+"/wal", wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer jl2.Close()
	p2.AttachWAL(jl2)
	if _, err := p2.LoadAll(); err != nil {
		t.Fatal(err)
	}
	rs := p2.ReplayStats()
	if rs.Applied != 0 || rs.SkippedUnknown != 1 {
		t.Fatalf("replay stats = %+v, want the dropped graph's record skipped", rs)
	}
	if names := cat2.Names(); len(names) != 0 {
		t.Fatalf("dropped graph resurrected: %v", names)
	}
}

// TestRecreatedNameFencedFromOldWALRecords: dropping a graph leaves its
// records in the WAL. A graph re-created under the same name must not
// have the old incarnation's records replayed onto it after a crash — it
// is born with its journal mark at the log head (the service's birth
// hook, mirrored here), so its baseline snapshot pins a floor past
// everything the previous incarnation journaled.
func TestRecreatedNameFencedFromOldWALRecords(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	jl, err := wal.Open(dir+"/wal", wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	p := NewPersister(st, cat)
	p.AttachWAL(jl)

	// First incarnation: baseline snapshot, two journaled batches, drop.
	e1, err := cat.Add("g", testGraph(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.SnapshotOne("g"); err != nil {
		t.Fatal(err)
	}
	ingestBatch(t, p, e1, EdgeBatch{Name: "g", Ops: []EdgeOp{{Src: 0, Dst: 15, Weight: 7}}})
	ingestBatch(t, p, e1, EdgeBatch{Name: "g", Ops: []EdgeOp{{Src: 1, Dst: 14, Weight: 3}}})
	if err := cat.Drop("g"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Remove("g"); err != nil {
		t.Fatal(err)
	}

	// Second incarnation, same name and dims: the old records would apply
	// cleanly here — exactly the silent-corruption shape the fence stops.
	e2, err := cat.Load("g", testGraph(t, 4), false, func(e *catalog.Entry) {
		e.SetJournalSeq(jl.NextLSN() - 1)
		p.Reborn("g")
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.SnapshotOne("g"); err != nil {
		t.Fatal(err)
	}
	ingestBatch(t, p, e2, EdgeBatch{Name: "g", Ops: []EdgeOp{{Src: 2, Dst: 13, Weight: 9}}})
	want := graphBytes(t, mustSnapshotGraph(t, e2))

	// Crash: the third batch lives only in the WAL. Reboot everything.
	jl.Close()
	cat2 := catalog.New()
	p2 := NewPersister(Must(Open(dir)), cat2)
	jl2, err := wal.Open(dir+"/wal", wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer jl2.Close()
	p2.AttachWAL(jl2)
	if _, err := p2.LoadAll(); err != nil {
		t.Fatal(err)
	}
	rs := p2.ReplayStats()
	if rs.Applied != 1 || rs.SkippedFloor != 2 {
		t.Fatalf("replay stats = %+v, want the old incarnation's 2 records below the floor and 1 applied", rs)
	}
	e3, err := cat2.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	if got := graphBytes(t, mustSnapshotGraph(t, e3)); !bytes.Equal(got, want) {
		t.Fatal("old incarnation's WAL records leaked into the re-created graph")
	}
	if e3.JournalSeq() != 3 {
		t.Fatalf("recovered journal seq = %d, want 3", e3.JournalSeq())
	}
}

// TestBootsDataDirectoryWrittenAt187c103 is the upgrade test for dropping
// the manifest's boot epochs (CONTRIBUTING rule 9: prove compatibility
// instead of bumping a version, since no persisted byte changes and the
// manifest only stops writing an optional key). testdata/data-187c103 was
// written by the code at commit 187c103: two process lives (a MANIFEST
// whose document and entry both carry "epoch":2), one 8-vertex graph, a
// snapshot at journal floor 1 and two journaled batches past it.
// recovered.graph is the graph image 187c103's own recovery of that
// directory serves. This code must boot it, replay the same records and
// serve the same bytes.
func TestBootsDataDirectoryWrittenAt187c103(t *testing.T) {
	const fixture = "testdata/data-187c103"
	dir := t.TempDir()
	for _, f := range []string{"MANIFEST", "g-1.snap", "wal/wal-0000000000000001.seg"} {
		data, err := os.ReadFile(filepath.Join(fixture, f))
		if err != nil {
			t.Fatal(err)
		}
		if f == "MANIFEST" && bytes.Count(data, []byte(`"epoch":2`)) != 2 {
			t.Fatal("fixture manifest does not carry the boot epochs this test is about")
		}
		if err := os.MkdirAll(filepath.Dir(filepath.Join(dir, f)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(filepath.Join(fixture, "recovered.graph"))
	if err != nil {
		t.Fatal(err)
	}

	cat := catalog.New()
	p := NewPersister(Must(Open(dir)), cat)
	jl, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	p.AttachWAL(jl)
	events, err := p.LoadAll()
	if err != nil || len(events) != 1 || events[0].Err != nil {
		t.Fatalf("recovery: %+v, %v", events, err)
	}
	if rs := p.ReplayStats(); rs.Applied != 2 || rs.SkippedFloor != 1 || rs.SkippedUnknown != 0 {
		t.Fatalf("replay = %+v, want what 187c103 replays: 2 applied, 1 below the floor", rs)
	}
	e := Must(cat.Get("g"))
	var got bytes.Buffer
	if _, err := e.Snapshot(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("graph recovered from the 187c103 directory differs from what 187c103 recovers")
	}
	// The next save rewrites the manifest without the key and a further
	// boot still finds the graph, now clean at its new position.
	if sr, err := p.SnapshotOne("g"); err != nil || !sr.Written {
		t.Fatalf("snapshot after upgrade: %+v, %v", sr, err)
	}
	if data, err := os.ReadFile(filepath.Join(dir, manifestName)); err != nil || bytes.Contains(data, []byte("epoch")) {
		t.Fatalf("rewritten manifest still carries an epoch (err %v)", err)
	}
	p2 := NewPersister(Must(Open(dir)), catalog.New())
	p2.AttachWAL(jl)
	if _, err := p2.LoadAll(); err != nil {
		t.Fatal(err)
	}
	if rs := p2.ReplayStats(); rs.Applied != 0 || len(p2.Dirty()) != 0 {
		t.Fatalf("second boot: replay %+v, dirty %v, want nothing to replay and nothing dirty", rs, p2.Dirty())
	}
}

func TestSnapshotSweepTruncatesDeadWALSegments(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Tiny segments so a handful of batches spans several files.
	jl, err := wal.Open(dir+"/wal", wal.Options{NoSync: true, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	cat := catalog.New()
	p := NewPersister(st, cat)
	p.AttachWAL(jl)
	e, err := cat.Add("g", testGraph(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.SnapshotOne("g"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		ingestBatch(t, p, e, EdgeBatch{Name: "g", Ops: []EdgeOp{{Src: i % 16, Dst: (i + 1) % 16, Weight: 1}}})
	}
	before := jl.Stats().Segments
	if before < 3 {
		t.Fatalf("want several segments before truncation, got %d", before)
	}
	// Flush everything durable; the sweep truncates dead segments.
	if _, err := p.FlushDirty(); err != nil {
		t.Fatal(err)
	}
	after := jl.Stats()
	if after.Segments >= before {
		t.Fatalf("segments %d -> %d: snapshot sweep did not truncate", before, after.Segments)
	}
	if after.Truncated == 0 {
		t.Fatal("truncation counter did not advance")
	}
	// Replay across the truncation boundary still verifies cleanly.
	if err := jl.Replay(1, func(wal.Record) error { return nil }); err != nil {
		t.Fatal(err)
	}
}
