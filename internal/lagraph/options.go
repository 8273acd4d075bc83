package lagraph

import (
	"context"

	"lagraph/internal/grb"
	"lagraph/internal/obs"
)

// Options collects the knobs shared by the algorithm entry points, set
// through functional options: iteration caps, convergence tolerances,
// traversal direction, and the observer that receives per-iteration
// records. The zero value of every field means "algorithm default", so
// options compose freely and new fields are backward compatible.
//
// The positional signatures that predated Options (PageRank's
// (damping, tol, maxIter), HITS's (tol, maxIter), SSSPDeltaStepping's
// delta) have been removed: PageRankWith, HITSWith, and SSSP are the only
// entry points, and grblint's deprecation check keeps new Deprecated
// symbols from accumulating.
type Options struct {
	// MaxIter caps the main iteration count; 0 selects the algorithm's
	// default (n for traversals, 100 for PageRank, 50 for HITS).
	MaxIter int
	// Tol is the convergence tolerance for fixed-point loops; 0 selects
	// the algorithm's default.
	Tol float64
	// Damping is PageRank's damping factor; 0 selects 0.85.
	Damping float64
	// Delta is delta-stepping's bucket width; 0 selects 2.
	Delta float64
	// Observer receives per-iteration IterRecords. nil falls back to
	// the process-wide observer (obs.Active), so a -trace run needs no
	// per-call plumbing; set it explicitly to scope observation to one
	// algorithm invocation.
	Observer obs.Observer
	// Dir forces push or pull traversal (DirAuto switches adaptively).
	Dir grb.Direction
	// Stats, when non-nil, receives per-iteration BFS statistics.
	Stats *BFSStats
	// Presort selects TriangleCount's degree relabeling; the zero value
	// TCNoSort preserves the input ordering.
	Presort TCPresort
	// PresortSet records that Presort was set via WithPresort, so TCAuto
	// can default to TCSortAuto without overriding an explicit choice.
	PresortSet bool
	// Ctx, when non-nil, is checked between iterations of every
	// algorithm loop: once it is done the algorithm abandons its local
	// state and returns an error wrapping grb.ErrCanceled. Cancellation
	// is clean — the input Graph and its cached properties are never
	// mutated mid-iteration, so a canceled run leaves no torn state.
	// Kernel code (internal/grb) never stores or checks a context; the
	// context lives at the algorithm layer only (enforced by grblint's
	// kernel-purity check).
	Ctx context.Context
}

// Option mutates an Options; pass them variadically to entry points.
type Option func(*Options)

// newOptions folds opts over the zero value.
func newOptions(opts []Option) Options {
	var o Options
	for _, f := range opts {
		f(&o)
	}
	return o
}

// maxIter returns the iteration cap, with def as the algorithm default.
func (o *Options) maxIter(def int) int {
	if o.MaxIter > 0 {
		return o.MaxIter
	}
	return def
}

// tol returns the tolerance, with def as the algorithm default.
func (o *Options) tol(def float64) float64 {
	if o.Tol > 0 {
		return o.Tol
	}
	return def
}

// WithMaxIter caps the main iteration count.
func WithMaxIter(n int) Option {
	return func(o *Options) { o.MaxIter = n }
}

// WithTolerance sets the convergence tolerance of fixed-point loops.
func WithTolerance(t float64) Option {
	return func(o *Options) { o.Tol = t }
}

// WithDamping sets PageRank's damping factor.
func WithDamping(d float64) Option {
	return func(o *Options) { o.Damping = d }
}

// WithDelta sets delta-stepping's bucket width.
func WithDelta(d float64) Option {
	return func(o *Options) { o.Delta = d }
}

// WithObserver scopes per-iteration observation to this invocation,
// overriding the process-wide observer.
func WithObserver(ob obs.Observer) Option {
	return func(o *Options) { o.Observer = ob }
}

// WithDirection forces push or pull traversal for every iteration
// (DirAuto, the default, switches adaptively).
func WithDirection(d grb.Direction) Option {
	return func(o *Options) { o.Dir = d }
}

// WithContext bounds the algorithm by ctx: each iteration starts only
// while ctx is live, and a done context makes the algorithm return an
// error matching grb.ErrCanceled (and ctx's own cause) via errors.Is.
func WithContext(ctx context.Context) Option {
	return func(o *Options) { o.Ctx = ctx }
}

// WithPresort selects TriangleCount's degree relabeling. TCSortAuto
// sorts only when the relabeling is estimated to pay, in the direction
// the resolved method prefers.
func WithPresort(p TCPresort) Option {
	return func(o *Options) { o.Presort = p; o.PresortSet = true }
}

// WithStats records per-iteration traversal statistics into s.
func WithStats(s *BFSStats) Option {
	return func(o *Options) { o.Stats = s }
}

// dirString renders a traversal direction for an IterRecord.
func dirString(d grb.Direction) string {
	if d == grb.DirPull {
		return "pull"
	}
	return "push"
}
