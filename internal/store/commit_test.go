package store

import (
	"bytes"
	"os"
	"slices"
	"strings"
	"testing"

	"lagraph/internal/catalog"
	"lagraph/internal/lagraph"
	"lagraph/internal/leakcheck"
)

// committed is one graph state a save puts on disk.
type committed struct {
	pos   Position
	graph []byte
}

// entryState is what a snapshot of e serialized now would commit.
func entryState(t *testing.T, e *catalog.Entry) committed {
	t.Helper()
	var buf bytes.Buffer
	info, err := e.Snapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return committed{Position{info.Generation, info.Journal}, buf.Bytes()}
}

// recovered reopens dir as a new process life does and returns what it
// recovers for name; ok is false when the name does not come back.
func recovered(t *testing.T, dir, name string) (got committed, ok bool) {
	t.Helper()
	p := NewPersister(Must(Open(dir)), catalog.New())
	if _, err := p.LoadAll(); err != nil {
		t.Fatal(err)
	}
	e, err := p.cat.Get(name)
	if err != nil {
		return committed{}, false
	}
	if pos, ok := p.st.Position(name); !ok || pos != (Position{e.Generation(), e.JournalSeq()}) {
		t.Fatalf("recovered %q: store position %+v,%v differs from the entry's", name, pos, ok)
	}
	return entryState(t, e), true
}

// checkRecovered fails unless dir recovers exactly want for name.
func checkRecovered(t *testing.T, dir, name string, want committed) {
	t.Helper()
	got, ok := recovered(t, dir, name)
	if !ok {
		t.Fatalf("%q did not recover", name)
	}
	if got.pos != want.pos || !bytes.Equal(got.graph, want.graph) {
		t.Fatalf("%q recovered at %+v (%d graph bytes), want the committed %+v (%d graph bytes, equal: %v)",
			name, got.pos, len(got.graph), want.pos, len(want.graph), bytes.Equal(got.graph, want.graph))
	}
}

// bump mutates e once, advancing its generation; v makes each bump's
// bytes distinct.
func bump(t *testing.T, e *catalog.Entry, v float64) {
	t.Helper()
	if err := e.Update(func(g *lagraph.Graph) error { return g.A.SetElement(0, 1, v) }); err != nil {
		t.Fatal(err)
	}
}

// TestRebaseAtOneGenerationKeepsTheRebasedFloor is cluster adoption's
// sequence: a snapshot of an entry at (generation 5, journal 1000)
// serializes, the entry is reborn with its journal rebased to 0, and a
// second snapshot commits (5, 0). Both positions name one file. The first
// save must not commit, and must not overwrite the file the second one
// committed: recovery replays from the floor on disk.
func TestRebaseAtOneGenerationKeepsTheRebasedFloor(t *testing.T) {
	dir := t.TempDir()
	p := NewPersister(Must(Open(dir)), catalog.New())
	e := Must(p.cat.Add("g", testGraph(t, 4)))
	e.SeedGeneration(5)
	e.SetJournalSeq(1000)
	var inner SnapResult
	var want committed
	p.afterSerialize = func(name string) {
		p.afterSerialize = nil
		p.Reborn(name)
		e.SetJournalSeq(0)
		want = entryState(t, e)
		var err error
		if inner, err = p.SnapshotOne(name); err != nil {
			t.Fatal(err)
		}
	}
	outer, err := p.SnapshotOne("g")
	if err != nil {
		t.Fatal(err)
	}
	if outer.Written || !inner.Written {
		t.Fatalf("outer written=%v, inner written=%v: want only the rebased snapshot to commit", outer.Written, inner.Written)
	}
	checkRecovered(t, dir, "g", want)
}

// TestRecreateAtOneGenerationKeepsTheNewGraph: a slow snapshot of a
// 16-vertex graph at (5, 7) serializes; the name is dropped and
// re-created with 8 vertices at generation 5, which commits (5, 0) under
// the same file name. The dropped graph must not come back.
func TestRecreateAtOneGenerationKeepsTheNewGraph(t *testing.T) {
	dir := t.TempDir()
	p := NewPersister(Must(Open(dir)), catalog.New())
	e := Must(p.cat.Add("g", testGraph(t, 4)))
	e.SeedGeneration(5)
	e.SetJournalSeq(7)
	var inner SnapResult
	var want committed
	p.afterSerialize = func(name string) {
		p.afterSerialize = nil
		if err := p.cat.Drop(name); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Remove(name); err != nil {
			t.Fatal(err)
		}
		e2 := Must(p.cat.Add(name, testGraph(t, 3)))
		e2.SeedGeneration(5)
		want = entryState(t, e2)
		var err error
		if inner, err = p.SnapshotOne(name); err != nil {
			t.Fatal(err)
		}
	}
	outer, err := p.SnapshotOne("g")
	if err != nil {
		t.Fatal(err)
	}
	if outer.Written || !inner.Written {
		t.Fatalf("outer written=%v, inner written=%v: want only the re-created graph to commit", outer.Written, inner.Written)
	}
	checkRecovered(t, dir, "g", want)
}

// saveOrders lists every order of two saves' steps (sA, sB: serialize;
// cA, cB: commit) and one event E in which each save serializes before it
// commits. A names the save that serializes first.
func saveOrders() [][]string {
	var out [][]string
	var walk func(order, rest []string)
	walk = func(order, rest []string) {
		if len(rest) == 0 {
			at := func(s string) int { return slices.Index(order, s) }
			if at("sA") < at("sB") && at("sA") < at("cA") && at("sB") < at("cB") {
				out = append(out, slices.Clone(order))
			}
			return
		}
		for i, s := range rest {
			walk(append(order, s), append(slices.Clone(rest[:i]), rest[i+1:]...))
		}
	}
	walk(nil, []string{"sA", "sB", "E", "cA", "cB"})
	return out
}

// TestTwoSavesOfOneNameInEveryOrder runs two SnapshotOne calls on one
// graph through every order of their steps around one event, parking
// each between serialize and commit at the afterSerialize seam. The
// graph starts on disk at (4, 1000) and in memory at (5, 1000). Events:
//
//   - none;
//   - newer: the graph mutates to generation 6;
//   - Reborn: the journal rebases to 0 at generation 5 (cluster
//     adoption), so both positions share one file name;
//   - Remove: the graph is dropped and re-created with 8 vertices at
//     generation 5 (a drop racing a flush, then a re-add).
//
// The model below is the store's commit rule: a save commits iff no
// Remove or Reborn came between its serialize and its commit, and this
// life's position on disk is neither its own nor a newer generation. Each
// row checks every save's Written against it, then that the directory
// holds only the manifest and the live file, that a reopen recovers the
// model's position and graph, and that the graph left in memory is dirty
// exactly when the disk differs from it and one flush makes it durable.
func TestTwoSavesOfOneNameInEveryOrder(t *testing.T) {
	leakcheck.Check(t)
	type event struct {
		name           string
		apply          func(t *testing.T, p *Persister)
		reborn, remove bool
	}
	events := []event{
		{name: "none", apply: func(*testing.T, *Persister) {}},
		{name: "newer", apply: func(t *testing.T, p *Persister) { bump(t, Must(p.cat.Get("g")), 3) }},
		{name: "Reborn", reborn: true, apply: func(t *testing.T, p *Persister) {
			p.Reborn("g")
			Must(p.cat.Get("g")).SetJournalSeq(0)
		}},
		{name: "Remove", reborn: true, remove: true, apply: func(t *testing.T, p *Persister) {
			if err := p.cat.Drop("g"); err != nil {
				t.Fatal(err)
			}
			if _, err := p.Remove("g"); err != nil {
				t.Fatal(err)
			}
			Must(p.cat.Add("g", testGraph(t, 3))).SeedGeneration(5)
		}},
	}
	for _, ev := range events {
		for _, order := range saveOrders() {
			t.Run(ev.name+"/"+strings.Join(order, ","), func(t *testing.T) {
				dir := t.TempDir()
				p := NewPersister(Must(Open(dir)), catalog.New())
				e := Must(p.cat.Add("g", testGraph(t, 4)))
				e.SeedGeneration(4)
				e.SetJournalSeq(1000)
				if _, err := p.FlushDirty(); err != nil {
					t.Fatal(err)
				}
				// The model: the incarnation, this life's position on disk,
				// and what a reopen finds.
				inc, pos, posOK := 0, Position{4, 1000}, true
				disk, diskOK := entryState(t, e), true
				bump(t, e, 2)

				type save struct {
					committed
					inc     int
					release chan struct{}
					done    chan SnapResult
				}
				saves := map[string]*save{}
				parked := make(chan chan struct{})
				p.afterSerialize = func(string) {
					release := make(chan struct{})
					parked <- release
					<-release
				}
				for _, step := range order {
					switch step {
					case "sA", "sB":
						sv := &save{committed: entryState(t, Must(p.cat.Get("g"))), inc: inc, done: make(chan SnapResult, 1)}
						go func() {
							sr, err := p.SnapshotOne("g")
							if err != nil {
								t.Error(err)
							}
							sv.done <- sr
						}()
						select {
						case sv.release = <-parked:
						case sr := <-sv.done:
							t.Fatalf("%s returned before it serialized: %+v", step, sr)
						}
						saves[step[1:]] = sv
					case "cA", "cB":
						sv := saves[step[1:]]
						close(sv.release)
						sr := <-sv.done
						want := sv.inc == inc && !(posOK && (pos.Generation > sv.pos.Generation || pos == sv.pos))
						if sr.Written != want {
							t.Fatalf("%s of %+v: written=%v, want %v", step, sv.pos, sr.Written, want)
						}
						if want {
							pos, posOK, disk, diskOK = sv.pos, true, sv.committed, true
						}
					case "E":
						ev.apply(t, p)
						if ev.reborn {
							inc, posOK = inc+1, false
						}
						if ev.remove {
							diskOK = false
						}
					}
				}
				p.afterSerialize = nil

				if got, ok := p.st.Position("g"); ok != posOK || ok && got != pos {
					t.Fatalf("store position %+v,%v, want %+v,%v", got, ok, pos, posOK)
				}
				want := []string{manifestName}
				if diskOK {
					want = append(want, snapFileName("g", disk.pos.Generation))
				}
				var files []string
				for _, f := range Must(os.ReadDir(dir)) {
					files = append(files, f.Name())
				}
				if slices.Sort(want); !slices.Equal(files, want) {
					t.Fatalf("directory holds %v, want %v", files, want)
				}
				if got, ok := recovered(t, dir, "g"); ok != diskOK {
					t.Fatalf("reopen recovered the graph: %v, want %v", ok, diskOK)
				} else if ok && (got.pos != disk.pos || !bytes.Equal(got.graph, disk.graph)) {
					t.Fatalf("reopen recovered %+v, want %+v (graph equal: %v)", got.pos, disk.pos, bytes.Equal(got.graph, disk.graph))
				}

				mem := entryState(t, Must(p.cat.Get("g")))
				if dirty := len(p.Dirty()) == 1; dirty != (!posOK || pos != mem.pos) {
					t.Fatalf("dirty=%v with memory at %+v and disk at %+v,%v", dirty, mem.pos, pos, posOK)
				}
				if _, err := p.FlushDirty(); err != nil {
					t.Fatal(err)
				}
				checkRecovered(t, dir, "g", mem)
			})
		}
	}
}
