package store

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"

	"lagraph/internal/catalog"
	"lagraph/internal/lagraph"
	"lagraph/internal/wal"
)

// Persister ties a catalog to a store: it snapshots dirty entries and
// replays the store and the journal into the catalog on boot. It keeps no
// per-graph progress of its own — a graph's position is on the catalog
// entry for what is in memory and in the store's table for what is on
// disk, and dirty, the truncation floor and "has a baseline" compare the
// two. Snapshots run under the entry's shared read lock
// (catalog.Entry.Snapshot), so queries keep executing meanwhile.
type Persister struct {
	st  *Store
	cat *catalog.Catalog
	// jl, when attached, is the edge-mutation journal: the streaming write
	// path appends each accepted batch here before applying it, and boot
	// recovery replays the suffix past each graph's snapshot floor.
	// Immutable after AttachWAL (which runs before the service starts).
	jl *wal.Log

	mu sync.Mutex
	// replayStats records what the boot-time WAL replay did.
	replayStats ReplayStats //grblint:guardedby mu

	// afterSerialize, when non-nil, runs between serialization and the
	// store save. Test seam for the drop-vs-snapshot race.
	afterSerialize func(name string)
}

// NewPersister wires a store to a catalog.
func NewPersister(st *Store, cat *catalog.Catalog) *Persister {
	return &Persister{st: st, cat: cat}
}

// Store exposes the underlying store (metrics, tests).
func (p *Persister) Store() *Store { return p.st }

// AttachWAL connects the edge-mutation journal. Call before LoadAll (so
// recovery replays it) and before the service starts accepting writes.
func (p *Persister) AttachWAL(l *wal.Log) { p.jl = l }

// WAL returns the attached journal (nil on a snapshot-only persister).
func (p *Persister) WAL() *wal.Log { return p.jl }

// SnapResult reports one completed snapshot.
type SnapResult struct {
	Name       string  `json:"name"`
	Generation uint64  `json:"generation"`
	Bytes      int64   `json:"bytes"`
	ElapsedMS  float64 `json:"elapsed_ms"`
	// Written is false when the store already holds this position or a
	// newer generation, or the graph was removed or reborn meanwhile.
	Written bool `json:"written"`
}

// LoadAll replays every stored snapshot into the catalog. Corrupt
// snapshots are quarantined by the store and reported in the events; a
// non-corruption failure (e.g. a catalog conflict) keeps the durable copy
// and is reported without destroying state. Neither aborts the boot.
// A recovered entry takes its position from the snapshot metadata:
// generations continue the durable sequence across restarts instead of
// restarting at zero, and the store records the same position for the
// name, so a recovered graph is clean and a restart does not immediately
// re-snapshot everything.
func (p *Persister) LoadAll() ([]RecoveryEvent, error) {
	events, err := p.st.LoadAll(func(meta Meta, payload []byte) error {
		g, gerr := lagraph.ReadGraph(bytes.NewReader(payload))
		if gerr != nil {
			return gerr
		}
		if got := kindString(g.Kind == lagraph.Directed); got != meta.Kind {
			return corruptf("snapshot %q: payload kind %q contradicts metadata %q", meta.Name, got, meta.Kind)
		}
		e, aerr := p.cat.Add(meta.Name, g)
		if aerr != nil {
			return fmt.Errorf("store: recover %q: %w", meta.Name, aerr)
		}
		e.SeedGeneration(meta.Generation)
		e.SetJournalSeq(meta.Journal)
		return nil
	})
	if err != nil {
		return events, err
	}
	if rerr := p.replayWAL(); rerr != nil {
		return events, rerr
	}
	return events, nil
}

// ReplayStats reports what the WAL replay phase of LoadAll did.
type ReplayStats struct {
	// Applied counts journal records replayed onto catalog entries.
	Applied int `json:"applied"`
	// SkippedFloor counts records already contained in a snapshot
	// (LSN at or below the graph's durable floor).
	SkippedFloor int `json:"skipped_floor"`
	// SkippedUnknown counts records naming graphs with no recovered
	// snapshot (dropped before the crash, or quarantined): their
	// mutations have nothing to land on and are reported, not replayed.
	SkippedUnknown int `json:"skipped_unknown"`
	// TornBytes and TornFile surface the WAL's own tail-truncation
	// report (a crash mid-append: tolerated and logged).
	TornBytes int64  `json:"torn_bytes"`
	TornFile  string `json:"torn_file,omitempty"`
}

// ReplayStats returns what the boot-time WAL replay did (zero value when
// no WAL is attached or LoadAll has not run).
func (p *Persister) ReplayStats() ReplayStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.replayStats
}

// replayWAL applies every journal record past its graph's snapshot floor
// (the journal mark LoadAll set, which each applied record advances).
// The graph named by a record may have no snapshot (created, mutated and
// never flushed before the crash — the service prevents this by forcing a
// baseline snapshot before the first journaled batch, so in practice this
// means "dropped later" or "snapshot quarantined"): such records are
// counted and skipped, never a boot failure.
func (p *Persister) replayWAL() error {
	if p.jl == nil {
		return nil
	}
	var rs ReplayStats
	rec := p.jl.Recovery()
	rs.TornBytes = rec.TornBytes
	rs.TornFile = rec.TornFile
	err := p.jl.Replay(1, func(r wal.Record) error {
		b, derr := DecodeEdgeBatch(r.Payload)
		if derr != nil {
			// The record passed CRC + chain validation, so a payload that
			// fails structural decode was written damaged — fail loudly
			// rather than silently diverging from the pre-crash state.
			return fmt.Errorf("store: wal replay: record %d: %w", r.LSN, derr)
		}
		e, gerr := p.cat.Get(b.Name)
		if gerr != nil {
			rs.SkippedUnknown++
			return nil
		}
		if r.LSN <= e.JournalSeq() {
			rs.SkippedFloor++
			return nil
		}
		ierr := e.Ingest(func(g *lagraph.Graph) (bool, error) {
			if aerr := ApplyEdgeBatch(g, b); aerr != nil {
				return false, aerr
			}
			e.SetJournalSeq(r.LSN)
			return true, nil
		})
		if ierr != nil {
			return fmt.Errorf("store: wal replay: record %d on %q: %w", r.LSN, b.Name, ierr)
		}
		rs.Applied++
		return nil
	})
	p.mu.Lock()
	p.replayStats = rs
	p.mu.Unlock()
	return err
}

// JournalEdges appends an encoded edge batch to the WAL and returns its
// LSN; the append is fsynced before return (the durability point of the
// streaming write path). With no WAL attached it returns LSN 0 — the
// mutation is memory-only until the next snapshot, the same durability a
// volatile daemon had before the journal existed. Call while holding the
// target entry's exclusive lock (inside catalog.Entry.Ingest), BEFORE
// applying the batch: write-ahead means a crash can leave a journaled
// batch unapplied (replay fixes that) but never an applied batch
// unjournaled (nothing could fix that).
func (p *Persister) JournalEdges(b EdgeBatch) (uint64, error) {
	if p.jl == nil {
		return 0, nil
	}
	payload, err := b.Encode()
	if err != nil {
		return 0, err
	}
	lsn, err := p.jl.Append(payload)
	if err != nil {
		return 0, fmt.Errorf("store: journal edges for %q: %w", b.Name, err)
	}
	return lsn, nil
}

// MarkApplied does nothing: the entry's journal mark (SetJournalSeq) is
// the only record of what is applied. It is kept for its one caller,
// bench/e2e/trace.go, which a PR outside bench/e2e may not edit.
func (p *Persister) MarkApplied(name string, lsn uint64) {}

// TruncateWAL removes journal segments made dead by snapshots: a record
// is dead once every graph that journaled past its snapshot has a durable
// floor at or past it. Replica entries are skipped — their mark counts
// the source primary's log, not this one. Called after snapshot sweeps;
// returns the number of segments removed.
func (p *Persister) TruncateWAL() (int, error) {
	if p.jl == nil {
		return 0, nil
	}
	floor := p.jl.NextLSN()
	for _, name := range p.cat.Names() {
		e, err := p.cat.Get(name)
		if err != nil || e.Role() == catalog.RoleReplica {
			continue
		}
		if disk, _ := p.st.Position(name); e.JournalSeq() > disk.Journal && disk.Journal+1 < floor {
			floor = disk.Journal + 1
		}
	}
	return p.jl.TruncateBefore(floor)
}

// Dirty returns the names whose position in memory differs from the one
// the store holds on disk (including graphs never saved at all), sorted.
// No store lock is held across a catalog call (the repo-wide lock order
// is catalog→store); a graph saved or removed mid-scan is re-classified
// on the next sweep.
func (p *Persister) Dirty() []string {
	var dirty []string
	for _, name := range p.cat.Names() {
		e, err := p.cat.Get(name)
		if err != nil {
			continue // dropped concurrently
		}
		if disk, ok := p.st.Position(name); !ok || disk != (Position{e.Generation(), e.JournalSeq()}) {
			dirty = append(dirty, name)
		}
	}
	return dirty
}

// SnapshotOne serializes the named graph at a pinned generation and saves
// it durably. Queries sharing the entry's read lock keep running. The
// store's incarnation of the name is read before serializing, and the
// save does not commit if Remove or Reborn moved it on meanwhile, so a
// drop racing a flush can never resurrect the graph and a replace racing
// one can never be rolled back by it.
func (p *Persister) SnapshotOne(name string) (SnapResult, error) {
	e, err := p.cat.Get(name)
	if err != nil {
		return SnapResult{}, err
	}
	inc := p.st.incarnation(name)
	t0 := time.Now()
	var buf bytes.Buffer
	info, err := e.Snapshot(&buf)
	if err != nil {
		p.st.snapshotErrors.Add(1)
		return SnapResult{}, fmt.Errorf("store: snapshot %q: %w", name, err)
	}
	if p.afterSerialize != nil {
		p.afterSerialize(name)
	}
	kind := kindString(info.Directed)
	written, err := p.st.Save(Meta{
		Name: name, Kind: kind,
		NRows: int64(info.N), NCols: int64(info.N), NVals: int64(info.NEdges),
		Generation: info.Generation, Journal: info.Journal,
	}, buf.Bytes(), inc)
	if err != nil {
		return SnapResult{}, err
	}
	elapsed := time.Since(t0)
	p.st.snapshotNanos.Add(int64(elapsed))
	return SnapResult{
		Name: name, Generation: info.Generation, Bytes: int64(buf.Len()),
		ElapsedMS: float64(elapsed) / float64(time.Millisecond), Written: written,
	}, nil
}

// FlushResult reports one FlushDirty pass.
type FlushResult struct {
	Snapshotted []SnapResult `json:"snapshotted"`
	Clean       int          `json:"clean"` // entries already durable
}

// FlushDirty snapshots every dirty graph. Per-graph failures are joined
// into the returned error but do not stop the sweep; a graph dropped
// between the dirty scan and its snapshot is skipped silently.
// Snapshotted is never nil, so a sweep with nothing dirty encodes as []
// like every other list the daemon answers with.
func (p *Persister) FlushDirty() (FlushResult, error) {
	dirty := p.Dirty()
	res := FlushResult{Snapshotted: make([]SnapResult, 0, len(dirty)), Clean: len(p.cat.Names()) - len(dirty)}
	var errs []error
	for _, name := range dirty {
		sr, err := p.SnapshotOne(name)
		if err != nil {
			if errors.Is(err, catalog.ErrNotFound) {
				continue
			}
			errs = append(errs, err)
			continue
		}
		res.Snapshotted = append(res.Snapshotted, sr)
	}
	// The sweep advanced the floors on disk; retire journal segments every
	// graph is now snapshotted past. Best-effort: a truncation failure
	// only costs disk, not correctness.
	if _, terr := p.TruncateWAL(); terr != nil {
		errs = append(errs, terr)
	}
	return res, errors.Join(errs...)
}

// Remove forgets a graph's durable copy (mirrors a catalog Drop). The
// store starts the name's next incarnation in the same critical section,
// so an in-flight SnapshotOne that serialized the graph before the drop
// does not commit, however the two interleave. The graph's WAL records
// stay in the log and replay as skipped-unknown, which is exactly right
// for a drop. Reports whether a durable copy existed.
func (p *Persister) Remove(name string) (removed bool, err error) {
	return p.st.Remove(name)
}

// Reborn tells the persister that name now holds a graph its durable copy
// does not describe (a load or replace; call it where the new graph
// becomes reachable, under the entry's exclusive lock): an in-flight
// snapshot of the previous graph does not commit, exactly as after
// Remove, and the name has no baseline until its next snapshot. The file
// on disk stays, so a crash before that snapshot recovers the previous
// graph.
func (p *Persister) Reborn(name string) { p.st.reborn(name) }

// kindString maps the graph kind onto the frame metadata vocabulary.
func kindString(directed bool) string {
	if directed {
		return "directed"
	}
	return "undirected"
}
