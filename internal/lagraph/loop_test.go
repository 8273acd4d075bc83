package lagraph

import (
	"errors"
	"testing"

	"lagraph/internal/grb"
	"lagraph/internal/obs"
)

// TestIterationLoopUntracedAllocatesNothing is the work gate for the loop
// helper's disabled path (CONTRIBUTING rule 8): with no observer and no
// context, opening and closing iterations allocates nothing.
func TestIterationLoopUntracedAllocatesNothing(t *testing.T) {
	prev := obs.Set(nil)
	defer obs.Set(prev)
	cfg := newOptions(nil)
	allocs := testing.AllocsPerRun(100, func() {
		lp := cfg.loop("test")
		for i := 1; i <= 3; i++ {
			if err := lp.next(); err != nil {
				t.Fatal(err)
			}
			lp.done(obs.IterRecord{Iter: i, Frontier: i, Dir: dirString(grb.DirPull)})
		}
	})
	if allocs != 0 {
		t.Errorf("an untraced loop of three iterations makes %.0f allocations, want 0", allocs)
	}
}

// tickLog is an observer whose clock advances by 10 per reading.
type tickLog struct {
	now   int64
	iters []obs.IterRecord
}

func (l *tickLog) Now() int64            { l.now += 10; return l.now }
func (l *tickLog) Op(obs.OpRecord)       {}
func (l *tickLog) Iter(r obs.IterRecord) { l.iters = append(l.iters, r) }

// TestIterationLoopRecords: done stamps a record with the loop's name and
// the clock's advance since next, and an untraced loop reads no clock.
func TestIterationLoopRecords(t *testing.T) {
	var log tickLog
	cfg := newOptions([]Option{WithObserver(&log)})
	lp := cfg.loop("test")
	if !lp.traced() {
		t.Fatal("a loop with an observer is not traced")
	}
	for i := 1; i <= 2; i++ {
		if err := lp.next(); err != nil {
			t.Fatal(err)
		}
		lp.done(obs.IterRecord{Iter: i, Frontier: 7})
	}
	want := []obs.IterRecord{{Algo: "test", Iter: 1, Frontier: 7, DurNanos: 10}, {Algo: "test", Iter: 2, Frontier: 7, DurNanos: 10}}
	if len(log.iters) != len(want) || log.iters[0] != want[0] || log.iters[1] != want[1] {
		t.Fatalf("records %+v, want %+v", log.iters, want)
	}

	prev := obs.Set(nil)
	defer obs.Set(prev)
	untraced := newOptions(nil)
	lp = untraced.loop("test")
	if lp.traced() {
		t.Fatal("a loop without an observer is traced")
	}
	_ = lp.next()
	lp.done(obs.IterRecord{Iter: 1})
	if log.now != 40 || len(log.iters) != 2 {
		t.Fatalf("an untraced loop reached an observer: clock %d, %d records", log.now, len(log.iters))
	}
}

// passThrough returns err through the try/catch pair.
func passThrough(err error) (_ int, err2 error) {
	defer catch(&err2)
	try(err)
	return 1, nil
}

// TestCatchKeepsErrorIdentity: the error a function returns through catch
// is the very value try was given, so errors.Is sees the grb sentinel, and
// the zero first result stands in for the one the function did not reach.
func TestCatchKeepsErrorIdentity(t *testing.T) {
	w, u, v := grb.MustVector[float64](3), grb.MustVector[float64](3), grb.MustVector[float64](4)
	mismatch := grb.EWiseAddVector[float64, bool](w, nil, nil, grb.Plus[float64](), u, v, nil)
	if !errors.Is(mismatch, grb.ErrDimensionMismatch) {
		t.Fatalf("the fixture call returned %v, not a dimension mismatch", mismatch)
	}
	n, err := passThrough(mismatch)
	if err != mismatch || !errors.Is(err, grb.ErrDimensionMismatch) || n != 0 {
		t.Fatalf("through catch: (%d, %v), want (0, %v)", n, err, mismatch)
	}
	if n, err := passThrough(nil); n != 1 || err != nil {
		t.Fatalf("a nil error through try: (%d, %v), want (1, nil)", n, err)
	}
}

// panicThrough raises v inside a function that defers catch.
func panicThrough(v any) (err error) {
	defer catch(&err)
	panic(v)
}

// mustThrough makes a grb.Must* call panic inside a function that defers
// catch.
func mustThrough() (err error) {
	defer catch(&err)
	_ = grb.MustVector[float64](-1)
	return nil
}

// TestCatchPassesForeignPanics: catch recovers only try's panics. Any
// other value, such as a grb.Must* on a bad dimension, leaves it unchanged.
func TestCatchPassesForeignPanics(t *testing.T) {
	recovered := func(f func()) (r any) {
		defer func() { r = recover() }()
		f()
		return nil
	}
	foreign := &struct{ name string }{"foreign"}
	if r := recovered(func() { _ = panicThrough(foreign) }); r != foreign {
		t.Fatalf("a foreign panic came out of catch as %v", r)
	}
	r := recovered(func() { _ = mustThrough() })
	if err, ok := r.(error); !ok || !errors.Is(err, grb.ErrInvalidValue) {
		t.Fatalf("grb.MustVector(-1)'s panic came out of catch as %v", r)
	}
}
