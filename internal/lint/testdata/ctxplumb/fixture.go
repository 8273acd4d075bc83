// Package ctxplumb exercises the context-plumbing check: no minted root
// contexts below cmd/, ctx first, contexts never stored in struct fields
// or package variables.
package ctxplumb

import "context"

// Options is the public execution-scope knob; its Ctx field is the one
// blessed context carrier.
type Options struct {
	Ctx context.Context
}

// Holder squirrels a context away for later use.
type Holder struct {
	ctx context.Context // WANT context-plumbing
}

// Mint fabricates a root context in library code, detaching its callees
// from caller cancellation.
func Mint() context.Context {
	return context.Background() // WANT context-plumbing
}

// derived is a package variable whose context type is inferred: stored
// all the same.
var derived, stop = context.WithCancel(Mint()) // WANT context-plumbing

// Todo is the placeholder variant of the same mistake.
func Todo() context.Context {
	return context.TODO() // WANT context-plumbing
}

// Later takes its context in second position.
func Later(name string, ctx context.Context) error { // WANT context-plumbing
	_ = name
	return ctx.Err()
}

// Run plumbs the caller's ctx straight through: clean.
func Run(ctx context.Context, name string) error {
	return work(ctx, name)
}

// work is a ctx-first helper: clean.
func work(ctx context.Context, name string) error {
	_ = name
	return ctx.Err()
}

// Detach deliberately severs cancellation for the audit sink, which must
// outlive any single request.
func Detach() context.Context {
	return context.Background() //grblint:ignore context-plumbing: audit sink must outlive the request that triggered it
}
