// Package catalog is the resident-graph registry of the service layer: a
// named collection of lagraph.Graph objects, each wrapped in an Entry
// that guards the graph behind a reader/writer locking protocol, so that
// many concurrent queries can share one graph while ingestion mutates it.
//
// # Locking protocol
//
// The underlying grb substrate promises that read-only operations on a
// fully materialized object are safe from any number of goroutines, but
// three kinds of lazy state make a "read" secretly a write:
//
//  1. pending tuples and zombies (the non-blocking execution model):
//     assembled by the next whole-object operation or Wait;
//  2. the column-oriented (CSC) cache built on first use by pull/dot
//     kernels (guarded by the matrix's own mutex);
//  3. the Graph property cache (degrees, self-loop count, symmetry, the
//     prepared triangle-count input), computed on first use by whichever
//     algorithm needs it and published atomically.
//
// Only the first needs the exclusive lock. An Entry therefore
// distinguishes a warm graph — no pending tuples, safe for unlimited
// concurrent readers, who build the other two as they ask — from a cold
// one. Readers enter through View, which warms the entry under the
// exclusive lock if needed and then runs the caller with the read lock
// held. Writers enter through Update, which holds the exclusive lock, and
// on exit invalidates the property cache, assembles all pending work (the
// "Wait before publish" rule: a reader must never observe pending
// tuples) and bumps the generation counter; Ingest leaves the assembly to
// the next reader and marks the entry cold.
package catalog

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"lagraph/internal/lagraph"
)

// Errors reported by the catalog.
var (
	// ErrNotFound is returned when a named graph is not registered.
	ErrNotFound = errors.New("catalog: graph not found")
	// ErrExists is returned by Add when the name is already registered.
	ErrExists = errors.New("catalog: graph already registered")
	// ErrReadOnly is returned by Update/Ingest on a replica entry: a graph
	// this node holds as a replication follower accepts mutations only
	// through the replication apply path (Replicate); direct writes must
	// go to the primary.
	ErrReadOnly = errors.New("catalog: graph is a read-only replica")
)

// Stats aggregates catalog-wide activity counters.
type Stats struct {
	Graphs  int   `json:"graphs"`
	Views   int64 `json:"views"`   // read-locked query executions
	Updates int64 `json:"updates"` // write-locked mutations
	Ingests int64 `json:"ingests"` // streaming edge-batch mutations
	Warms   int64 `json:"warms"`   // cold→warm pending-tuple assemblies
}

// Catalog is a concurrency-safe name → Entry registry.
type Catalog struct {
	mu      sync.RWMutex
	entries map[string]*Entry //grblint:guardedby mu

	views   atomic.Int64
	updates atomic.Int64
	ingests atomic.Int64
	warms   atomic.Int64
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{entries: map[string]*Entry{}}
}

// Add registers g under name. The graph is adopted: after Add, the caller
// must not touch g except through the returned Entry.
func (c *Catalog) Add(name string, g *lagraph.Graph) (*Entry, error) {
	return c.Load(name, g, false, nil)
}

// Load registers g under name like Add; with replace set, an existing
// name has g swapped in under the entry's exclusive lock instead of
// failing, so in-flight readers finish against the old graph and later
// readers see the new one — the Entry identity (and any held references)
// stays valid. born, when non-nil, runs once with that exclusive lock
// held, at the only moment the new graph is reachable and nothing else
// can touch it: the one place to initialize entry state that must be in
// step with the graph (the service stamps the journal mark there).
func (c *Catalog) Load(name string, g *lagraph.Graph, replace bool, born func(e *Entry)) (*Entry, error) {
	if g == nil {
		return nil, fmt.Errorf("catalog: load %q: nil graph", name)
	}
	c.mu.Lock()
	e, ok := c.entries[name]
	if !ok {
		e = &Entry{name: name, g: g, cat: c}
		e.mu.Lock()
		defer e.mu.Unlock()
		c.entries[name] = e
		c.mu.Unlock()
		if born != nil {
			born(e)
		}
		return e, nil
	}
	c.mu.Unlock()
	if !replace {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	err := e.Update(func(*lagraph.Graph) error {
		e.g = g
		if born != nil {
			born(e)
		}
		return nil
	})
	return e, err
}

// Get returns the entry registered under name.
func (c *Catalog) Get(name string) (*Entry, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.entries[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return e, nil
}

// Drop unregisters name. In-flight queries holding the entry's read lock
// finish normally; the graph is garbage once they release it.
func (c *Catalog) Drop(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[name]; !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	delete(c.entries, name)
	return nil
}

// Names returns the registered names, sorted.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.entries))
	for n := range c.entries {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Stats snapshots the catalog counters.
func (c *Catalog) Stats() Stats {
	c.mu.RLock()
	n := len(c.entries)
	c.mu.RUnlock()
	return Stats{
		Graphs:  n,
		Views:   c.views.Load(),
		Updates: c.updates.Load(),
		Ingests: c.ingests.Load(),
		Warms:   c.warms.Load(),
	}
}
