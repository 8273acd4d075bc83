package lagraph

import (
	"context"
	"fmt"

	"lagraph/internal/grb"
	"lagraph/internal/obs"
)

// An algorithm's text is its GraphBLAS calls. Two helpers keep everything
// else out of it: a loop decides how an iteration is cancelled and
// observed, and the try/catch pair carries a failed call's error to the
// function's return.

// loop is one algorithm loop's cancellation and observation. next opens
// an iteration and done closes it with its record:
//
//	lp := cfg.loop("bfs")
//	for ... {
//		try(lp.next())
//		...
//		lp.done(obs.IterRecord{Iter: depth, Frontier: nf})
//	}
//
// Untraced and without a context, next and done allocate nothing and read
// no clock (TestIterationLoopUntracedAllocatesNothing). A loop lives for
// one call and holds a copy of that call's Options, the type that carries
// its context: a pointer would move the caller's Options to the heap, since
// a traced done hands the loop's fields to the observer.
type loop struct {
	cfg  Options
	ob   obs.Observer
	algo string
	t0   int64
}

// loop starts the loop algo names in its records. Its observer is the
// per-call one if set, otherwise the process-wide one (nil when tracing is
// off).
func (o *Options) loop(algo string) loop {
	ob := o.Observer
	if ob == nil {
		ob = obs.Active()
	}
	return loop{cfg: *o, ob: ob, algo: algo}
}

// next opens an iteration. Once the context is done it returns an error
// wrapping both grb.ErrCanceled and the context's cause, so a cancelled
// request returns within one iteration, and, because the check sits
// between iterations, never with shared cached state half-built. Traced,
// it starts the iteration's clock.
func (l *loop) next() error {
	if ctx := l.cfg.Ctx; ctx != nil {
		select {
		case <-ctx.Done():
			return fmt.Errorf("lagraph: %w: %w", grb.ErrCanceled, context.Cause(ctx))
		default:
		}
	}
	if l.ob != nil {
		l.t0 = l.ob.Now()
	}
	return nil
}

// done closes an iteration. Traced, it emits r with the loop's name and
// the wall time since next; untraced, it does nothing.
func (l *loop) done(r obs.IterRecord) {
	if l.ob == nil {
		return
	}
	r.Algo, r.DurNanos = l.algo, l.ob.Now()-l.t0
	l.ob.Iter(r)
}

// traced reports whether the loop has an observer, for work done only to
// fill a record, such as asking grb which direction a step will take.
func (l *loop) traced() bool { return l.ob != nil }

// failure is the panic value try raises; catch recovers nothing else.
type failure struct{ err error }

// try hands a non-nil err to the enclosing function's deferred catch. It
// belongs in the body of a function that defers catch, never in a function
// literal or a go statement: grb runs closures on its worker goroutines,
// where no catch is on the stack (grblint's error-discipline check).
func try(err error) {
	if err != nil {
		panic(failure{err})
	}
}

// catch, deferred as `defer catch(&err)` on the function's named error
// result, returns try's error unchanged, so errors.Is sees what the grb
// call returned. Any other panic, such as a grb.Must* on a bad dimension,
// goes on as it was.
func catch(err *error) {
	if r := recover(); r != nil {
		f, ok := r.(failure)
		if !ok {
			panic(r)
		}
		*err = f.err
	}
}
