// Package fixture exercises the atomic-fields check: sync/atomic's
// package-level functions are banned, its typed atomics are not.
package fixture

import "sync/atomic"

type scheduler struct {
	workers int64
	typed   atomic.Int64
}

func (s *scheduler) grow() {
	atomic.AddInt64(&s.workers, 1) // WANT atomic-fields
}

func (s *scheduler) read() int64 {
	return atomic.LoadInt64(&s.workers) // WANT atomic-fields
}

// loader holds a sync/atomic function as a value: the same plain
// variable, one step removed.
var loader = atomic.LoadInt64 // WANT atomic-fields

func (s *scheduler) growTyped() int64 {
	return s.typed.Add(1)
}

var hits atomic.Int64

func recordHit() {
	hits.Add(1)
}

func snapshot() int64 {
	return hits.Load()
}

func annotated(n *int32) {
	atomic.StoreInt32(n, 0) //grblint:ignore atomic-fields: the caller owns n until this returns, before any goroutine starts
}
