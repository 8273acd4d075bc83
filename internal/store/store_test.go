package store

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lagraph/internal/catalog"
	"lagraph/internal/gen"
	"lagraph/internal/lagraph"
	"lagraph/internal/leakcheck"
)

// testGraph builds a deterministic undirected power-law graph.
func testGraph(t testing.TB, scale int) *lagraph.Graph {
	t.Helper()
	n := 1 << scale
	e := gen.PowerLaw(n, 8*n, 1.8, gen.Config{Seed: 7, Undirected: true, NoSelfLoops: true})
	g, err := lagraph.NewGraph(e.Matrix(), lagraph.Undirected)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// graphBytes serializes a graph the way Entry.Snapshot does.
func graphBytes(t testing.TB, g *lagraph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := lagraph.WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestStoreSaveLoadRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g := testGraph(t, 5)
	payload := graphBytes(t, g)
	meta := Meta{Name: "g", Kind: "undirected", NRows: 32, NCols: 32, NVals: int64(g.NEdges()), Generation: 3}
	if written, err := st.Save(meta, payload, 0); err != nil || !written {
		t.Fatalf("save: written=%v err=%v", written, err)
	}
	gotMeta, gotPayload, err := st.Load("g")
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta != meta {
		t.Fatalf("meta: %+v != %+v", gotMeta, meta)
	}
	if !bytes.Equal(gotPayload, payload) {
		t.Fatal("payload differs")
	}
	g2, err := lagraph.ReadGraph(bytes.NewReader(gotPayload))
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.NEdges() != g.NEdges() || g2.Kind != g.Kind {
		t.Fatalf("decoded graph differs: %d/%d vs %d/%d", g2.N(), g2.NEdges(), g.N(), g.NEdges())
	}
	if _, _, err := st.Load("missing"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing load: %v", err)
	}
	if s := st.Stats(); s.Graphs != 1 || s.Snapshots != 1 || s.Loads != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

// TestStoreReopenSeesManifest proves the manifest survives a clean
// process boundary: a second Open on the same directory serves the same
// bytes.
func TestStoreReopenSeesManifest(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	payload := graphBytes(t, testGraph(t, 4))
	if _, err := st.Save(Meta{Name: "alpha", Kind: "undirected", Generation: 1}, payload, 0); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	meta, got, err := st2.Load("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if meta.Generation != 1 || !bytes.Equal(got, payload) {
		t.Fatal("reopen lost the snapshot")
	}
}

// TestCrashMidWriteKeepsPreviousGood simulates every interleaving a
// kill -9 can leave behind and proves the previously good copy survives:
//
//  1. crash before the snapshot rename: a stray temp file, manifest
//     untouched, which the reopen removes;
//  2. crash after the snapshot rename but before the manifest rename: a
//     newer complete snapshot exists, but the manifest still names the
//     old one — readers keep the old consistent copy;
//  3. crash mid-manifest-write: a stray manifest temp file, which the
//     reopen removes, the real MANIFEST intact.
func TestCrashMidWriteKeepsPreviousGood(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	good := graphBytes(t, testGraph(t, 4))
	if _, err := st.Save(Meta{Name: "g", Kind: "undirected", Generation: 1}, good, 0); err != nil {
		t.Fatal(err)
	}

	// State 1: torn temp file from a crash mid-write.
	if err := os.WriteFile(filepath.Join(dir, ".tmp-crash1"), []byte("torn half-written frame"), 0o644); err != nil {
		t.Fatal(err)
	}
	// State 2: a complete newer snapshot the manifest never adopted.
	newer := graphBytes(t, testGraph(t, 5))
	var fbuf bytes.Buffer
	if err := WriteFrame(&fbuf, Meta{Name: "g", Kind: "undirected", Generation: 2}, newer); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapFileName("g", 2)), fbuf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	// State 3: torn manifest temp file.
	if err := os.WriteFile(filepath.Join(dir, ".tmp-manifest"), []byte("torn manifest"), 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	meta, payload, err := st2.Load("g")
	if err != nil {
		t.Fatal(err)
	}
	if meta.Generation != 1 || !bytes.Equal(payload, good) {
		t.Fatalf("recovery picked the wrong copy: generation %d", meta.Generation)
	}
	for _, stray := range []string{".tmp-crash1", ".tmp-manifest"} {
		if _, err := os.Stat(filepath.Join(dir, stray)); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("stray temp file %s survived the reopen: %v", stray, err)
		}
	}
}

// TestCorruptManifestRescues: a destroyed MANIFEST falls back to the
// directory rescan, which adopts the highest-generation valid snapshot
// per graph and quarantines damaged ones.
func TestCorruptManifestRescues(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	gold := graphBytes(t, testGraph(t, 4))
	if _, err := st.Save(Meta{Name: "keep", Kind: "undirected", Generation: 5}, gold, 0); err != nil {
		t.Fatal(err)
	}
	// An older generation of the same graph lingering on disk (crash
	// between manifest write and old-file delete).
	var older bytes.Buffer
	if err := WriteFrame(&older, Meta{Name: "keep", Kind: "undirected", Generation: 2}, graphBytes(t, testGraph(t, 3))); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapFileName("keep", 2)), older.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	// A damaged snapshot of another graph.
	if err := os.WriteFile(filepath.Join(dir, snapFileName("broken", 1)), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Destroy the manifest.
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("not a manifest"), 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	meta, payload, err := st2.Load("keep")
	if err != nil {
		t.Fatal(err)
	}
	if meta.Generation != 5 || !bytes.Equal(payload, gold) {
		t.Fatalf("rescan picked generation %d, want 5", meta.Generation)
	}
	if _, _, err := st2.Load("broken"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("broken snapshot survived rescan: %v", err)
	}
	// The damaged file and manifest are quarantined, not deleted.
	if _, err := os.Stat(filepath.Join(dir, snapFileName("broken", 1)+".corrupt")); err != nil {
		t.Error("damaged snapshot not quarantined")
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName+".corrupt")); err != nil {
		t.Error("damaged manifest not quarantined")
	}
	if st2.Stats().Quarantined < 2 {
		t.Errorf("quarantine counter = %d, want >= 2", st2.Stats().Quarantined)
	}
}

// TestSavePositionGuard: a save is dropped only when the store already
// holds exactly its position or a strictly newer generation. A stale
// concurrent save must not roll the graph back; a save at the live
// generation but a different journal LSN (an adoption rebasing the floor)
// must be written, because recovery replays from the floor on disk.
func TestSavePositionGuard(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	live := Meta{Name: "g", Kind: "undirected", Generation: 7, Journal: 1000}
	newPayload := graphBytes(t, testGraph(t, 5))
	if _, err := st.Save(live, newPayload, 0); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		why     string
		meta    Meta
		written bool
	}{
		{"stale generation", Meta{Name: "g", Kind: "undirected", Generation: 3, Journal: 2000}, false},
		{"identical position", live, false},
		{"same generation, rebased floor", Meta{Name: "g", Kind: "undirected", Generation: 7, Journal: 0}, true},
	} {
		payload := newPayload
		if c.meta.Generation != live.Generation {
			payload = graphBytes(t, testGraph(t, 4))
		}
		written, err := st.Save(c.meta, payload, 0)
		if err != nil {
			t.Fatal(err)
		}
		if written != c.written {
			t.Fatalf("%s: written=%v, want %v", c.why, written, c.written)
		}
	}
	meta, payload, err := st.Load("g")
	if err != nil {
		t.Fatal(err)
	}
	if meta.Generation != 7 || meta.Journal != 0 || !bytes.Equal(payload, newPayload) {
		t.Fatalf("live snapshot is %+v, want generation 7 at the rebased floor 0", meta)
	}
	if pos, ok := st.Position("g"); !ok || pos != (Position{7, 0}) {
		t.Fatalf("store position = %+v,%v, want {7 0}", pos, ok)
	}
}

// TestPersisterLifecycle drives the full dirty-tracking loop: add →
// dirty → flush → clean → mutate → dirty again → flush → recover into a
// fresh catalog.
func TestPersisterLifecycle(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	p := NewPersister(st, cat)

	if _, err := cat.Add("a", testGraph(t, 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Add("b", testGraph(t, 4)); err != nil {
		t.Fatal(err)
	}
	if d := p.Dirty(); len(d) != 2 {
		t.Fatalf("dirty after add = %v, want [a b]", d)
	}
	res, err := p.FlushDirty()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Snapshotted) != 2 || res.Clean != 0 {
		t.Fatalf("flush: %+v", res)
	}
	if d := p.Dirty(); len(d) != 0 {
		t.Fatalf("dirty after flush = %v, want none", d)
	}
	res, err = p.FlushDirty()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Snapshotted) != 0 || res.Clean != 2 {
		t.Fatalf("second flush should be a no-op: %+v", res)
	}

	// Mutate one graph: only it goes dirty, and its snapshot carries the
	// bumped generation.
	e, err := cat.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Update(func(g *lagraph.Graph) error {
		if err := g.A.SetElement(0, 1, 1); err != nil {
			return err
		}
		return g.A.SetElement(1, 0, 1)
	}); err != nil {
		t.Fatal(err)
	}
	if d := p.Dirty(); len(d) != 1 || d[0] != "a" {
		t.Fatalf("dirty after update = %v, want [a]", d)
	}
	sr, err := p.SnapshotOne("a")
	if err != nil {
		t.Fatal(err)
	}
	if sr.Generation != 1 || !sr.Written || sr.Bytes == 0 {
		t.Fatalf("snapshot result: %+v", sr)
	}

	// Recover into a fresh catalog: both graphs come back with identical
	// edge counts, marked clean.
	cat2 := catalog.New()
	p2 := NewPersister(st, cat2)
	events, err := p2.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("recovery events: %+v", events)
	}
	for _, ev := range events {
		if ev.Err != nil {
			t.Fatalf("recovery of %q failed: %v", ev.Name, ev.Err)
		}
	}
	ea, err := cat2.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	eaProps := ea.Properties()
	if eaProps.NEdges != e.Properties().NEdges {
		t.Fatalf("recovered edge count %d != %d", eaProps.NEdges, e.Properties().NEdges)
	}
	if d := p2.Dirty(); len(d) != 0 {
		t.Fatalf("freshly recovered graphs dirty: %v", d)
	}

	// Remove mirrors a catalog drop and reports the durable copy existed.
	if removed, err := p2.Remove("b"); err != nil || !removed {
		t.Fatalf("remove: removed=%v err=%v", removed, err)
	}
	if _, _, err := st.Load("b"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("removed graph still stored: %v", err)
	}
}

// TestLoadAllQuarantinesBadSnapshot: one damaged file must not take down
// recovery of its neighbours — the bad one is quarantined and reported.
func TestLoadAllQuarantinesBadSnapshot(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	p := NewPersister(st, cat)
	for _, n := range []string{"good", "doomed"} {
		if _, err := cat.Add(n, testGraph(t, 4)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.FlushDirty(); err != nil {
		t.Fatal(err)
	}
	// Flip one payload bit in doomed's snapshot file.
	pos, ok := st.Position("doomed")
	if !ok {
		t.Fatal("doomed not saved")
	}
	path := filepath.Join(dir, snapFileName("doomed", pos.Generation))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	cat2 := catalog.New()
	p2 := NewPersister(Must(Open(dir)), cat2)
	events, err := p2.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	var goodOK, doomedQuarantined bool
	for _, ev := range events {
		switch ev.Name {
		case "good":
			goodOK = ev.Err == nil
		case "doomed":
			doomedQuarantined = ev.Err != nil && errors.Is(ev.Err, ErrCorrupt)
		}
	}
	if !goodOK || !doomedQuarantined {
		t.Fatalf("recovery events: %+v", events)
	}
	if _, err := cat2.Get("good"); err != nil {
		t.Fatal("good graph not recovered")
	}
	if _, err := cat2.Get("doomed"); !errors.Is(err, catalog.ErrNotFound) {
		t.Fatal("doomed graph resurrected from corrupt bytes")
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Error("doomed snapshot not quarantined to *.corrupt")
	}
	// The quarantine is durable: a later boot does not retry the bad file.
	p3 := NewPersister(Must(Open(dir)), catalog.New())
	events, err = p3.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Name != "good" {
		t.Fatalf("post-quarantine boot events: %+v", events)
	}
}

// TestRecoverySeedsGenerationsAcrossRestart is the regression test for
// the silent post-restart data-loss bug: in-memory generations restart at
// zero each process life, so a Save guard comparing them against manifest
// generations persisted by the previous life used to drop every
// post-recovery snapshot whose (fresh, small) generation trailed the old
// (large) one — and a crash then rolled the graph back. Recovery now
// seeds catalog generations from the snapshot metadata, and the store's
// guard compares against this life's position table only.
func TestRecoverySeedsGenerationsAcrossRestart(t *testing.T) {
	dir := t.TempDir()

	// Life 1: add, mutate three times (generation 3), flush.
	cat1 := catalog.New()
	p1 := NewPersister(Must(Open(dir)), cat1)
	if _, err := cat1.Add("g", testGraph(t, 4)); err != nil {
		t.Fatal(err)
	}
	e1, _ := cat1.Get("g")
	for i := 0; i < 3; i++ {
		if err := e1.Update(func(g *lagraph.Graph) error {
			return g.A.SetElement(0, i+1, float64(i+1))
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p1.FlushDirty(); err != nil {
		t.Fatal(err)
	}
	if pos, ok := p1.Store().Position("g"); !ok || pos.Generation != 3 {
		t.Fatalf("saved position = %+v,%v, want generation 3", pos, ok)
	}

	// Life 2: recover, replace the graph's contents, snapshot.
	cat2 := catalog.New()
	p2 := NewPersister(Must(Open(dir)), cat2)
	if _, err := p2.LoadAll(); err != nil {
		t.Fatal(err)
	}
	e2, err := cat2.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	if gen := e2.Generation(); gen != 3 {
		t.Fatalf("recovered generation = %d, want 3 (seeded from snapshot)", gen)
	}
	replacement := testGraph(t, 5)
	wantEdges := replacement.NEdges()
	if _, err := cat2.Load("g", replacement, true, nil); err != nil {
		t.Fatal(err)
	}
	if d := p2.Dirty(); len(d) != 1 || d[0] != "g" {
		t.Fatalf("dirty after replace = %v, want [g]", d)
	}
	sr, err := p2.SnapshotOne("g")
	if err != nil {
		t.Fatal(err)
	}
	if !sr.Written {
		t.Fatalf("post-recovery snapshot silently dropped: %+v", sr)
	}

	// Life 3: the replacement — not the pre-restart contents — recovers.
	cat3 := catalog.New()
	p3 := NewPersister(Must(Open(dir)), cat3)
	if _, err := p3.LoadAll(); err != nil {
		t.Fatal(err)
	}
	e3, err := cat3.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	if got := e3.Properties().NEdges; got != wantEdges {
		t.Fatalf("recovered %d edges, want the replacement's %d — graph rolled back across restart", got, wantEdges)
	}
}

// TestPositionTableIsPerLife pins the store-level contract behind the fix
// above: the position guard compares against what THIS process life
// loaded or saved, never against the manifest a previous life left
// behind. A fresh process whose generations restarted low can overwrite a
// high-generation entry it never loaded, and one that did load it finds
// the graph clean.
func TestPositionTableIsPerLife(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Save(Meta{Name: "g", Kind: "undirected", Generation: 57, Journal: 9}, graphBytes(t, testGraph(t, 4)), 0); err != nil {
		t.Fatal(err)
	}

	// A life that recovers the graph holds its position: nothing is dirty.
	cat := catalog.New()
	p := NewPersister(Must(Open(dir)), cat)
	if _, ok := p.Store().Position("g"); ok {
		t.Fatal("position table not empty at Open")
	}
	if _, err := p.LoadAll(); err != nil {
		t.Fatal(err)
	}
	if pos, ok := p.Store().Position("g"); !ok || pos != (Position{57, 9}) {
		t.Fatalf("position after recovery = %+v,%v, want {57 9}", pos, ok)
	}
	if d := p.Dirty(); len(d) != 0 {
		t.Fatalf("recovered graph dirty at boot: %v", d)
	}

	// A life that never loaded it is not blocked by the manifest entry.
	st2 := Must(Open(dir))
	fresh := graphBytes(t, testGraph(t, 5))
	written, err := st2.Save(Meta{Name: "g", Kind: "undirected", Generation: 1}, fresh, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !written {
		t.Fatal("save blocked by a previous life's manifest entry")
	}
	meta, payload, err := st2.Load("g")
	if err != nil {
		t.Fatal(err)
	}
	if meta.Generation != 1 || !bytes.Equal(payload, fresh) {
		t.Fatalf("live snapshot is generation %d, want the new life's 1", meta.Generation)
	}
	if _, err := os.Stat(filepath.Join(dir, snapFileName("g", 57))); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("previous life's snapshot file not retired: %v", err)
	}
}

// TestLoadAllKeepsFileOnNonCorruptError: only corruption quarantines. A
// decode callback failing for any other reason (catalog conflict,
// transient resource trouble) must leave the valid durable copy and its
// manifest entry untouched, so a later boot can still recover it.
func TestLoadAllKeepsFileOnNonCorruptError(t *testing.T) {
	dir := t.TempDir()
	st := Must(Open(dir))
	payload := graphBytes(t, testGraph(t, 4))
	if _, err := st.Save(Meta{Name: "g", Kind: "undirected", Generation: 1}, payload, 0); err != nil {
		t.Fatal(err)
	}
	transient := errors.New("no room in the catalog today")
	events, err := st.LoadAll(func(Meta, []byte) error { return transient })
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || !errors.Is(events[0].Err, transient) || events[0].Quarantined {
		t.Fatalf("events: %+v", events)
	}
	if _, err := os.Stat(filepath.Join(dir, snapFileName("g", 1))); err != nil {
		t.Fatal("valid snapshot destroyed over a non-corruption error")
	}
	if st.Stats().Graphs != 1 {
		t.Fatal("manifest entry dropped over a non-corruption error")
	}
	// The next attempt (here: a permissive callback) recovers normally.
	events, err = st.LoadAll(func(Meta, []byte) error { return nil })
	if err != nil || len(events) != 1 || events[0].Err != nil {
		t.Fatalf("retry recovery: %+v, %v", events, err)
	}
}

// TestDirtyUnlocksBeforeCatalogScan is the regression test for the
// Dirty() restructure: the catalog is consulted with no store-side lock
// held (the repo-wide lock order is catalog→store; grblint's
// lock-discipline check forbids the inverse). It pins classification across the save/update/remove
// transitions and then hammers Dirty/FlushDirty against a concurrent
// catalog writer — under -race, the shape that used to hold p.mu across
// catalog calls.
func TestDirtyUnlocksBeforeCatalogScan(t *testing.T) {
	leakcheck.Check(t)
	st := Must(Open(t.TempDir()))
	cat := catalog.New()
	p := NewPersister(st, cat)

	if _, err := cat.Add("a", testGraph(t, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Add("b", testGraph(t, 4)); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(p.Dirty(), ","); got != "a,b" {
		t.Fatalf("fresh graphs should be dirty: %q", got)
	}
	if _, err := p.FlushDirty(); err != nil {
		t.Fatal(err)
	}
	if got := p.Dirty(); len(got) != 0 {
		t.Fatalf("flushed graphs still dirty: %v", got)
	}
	e := Must(cat.Get("a"))
	if err := e.Update(func(g *lagraph.Graph) error {
		return g.A.SetElement(0, 1, 1)
	}); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(p.Dirty(), ","); got != "a" {
		t.Fatalf("after update, dirty = %q, want \"a\"", got)
	}

	// Concurrent add/drop churn while the persister classifies and
	// flushes: correctness here is "no deadlock, no race, no error" — a
	// graph dropped mid-scan is re-classified on the next sweep.
	churn := testGraph(t, 3)
	stop := make(chan struct{})
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := fmt.Sprintf("tmp%d", i%4)
			if _, err := cat.Add(name, churn); err == nil {
				_ = cat.Drop(name)
			}
		}
	}()
	for i := 0; i < 50; i++ {
		_ = p.Dirty()
		if _, err := p.FlushDirty(); err != nil {
			t.Errorf("flush during churn: %v", err)
			break
		}
	}
	close(stop)
	<-churnDone
}

// Must unwraps an (value, error) pair in test plumbing.
func Must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// TestStoreNameEscaping: hostile graph names stay inside the data
// directory and round-trip through save/load.
func TestStoreNameEscaping(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	hostile := []string{"../escape", "a/b/c", ".hidden", "", "name with spaces", "_5f"}
	payload := graphBytes(t, testGraph(t, 3))
	for i, name := range hostile {
		if _, err := st.Save(Meta{Name: name, Kind: "undirected", Generation: uint64(i)}, payload, 0); err != nil {
			t.Fatalf("save %q: %v", name, err)
		}
	}
	for _, name := range hostile {
		if _, _, err := st.Load(name); err != nil {
			t.Fatalf("load %q: %v", name, err)
		}
	}
	// Nothing escaped the directory.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if strings.Contains(ent.Name(), "..") || strings.Contains(ent.Name(), "/") {
			t.Fatalf("unsafe file name %q", ent.Name())
		}
	}
	if _, err := os.Stat(filepath.Join(filepath.Dir(dir), "escape")); err == nil {
		t.Fatal("path traversal escaped the data directory")
	}
}
