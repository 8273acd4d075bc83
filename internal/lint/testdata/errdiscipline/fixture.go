// Package lagraph is an error-discipline fixture (named lagraph so the
// check applies): algorithm code must not silently drop error returns.
package lagraph

type vec struct{}

func (v *vec) SetElement(i int, x float64) error { return nil }
func (v *vec) Wait()                             {}

func step() error        { return nil }
func pair() (int, error) { return 0, nil }
func clean() int         { return 0 }

// BadDrop drops a method call's error on the floor.
func BadDrop(v *vec) {
	v.SetElement(0, 1) // WANT error-discipline
}

// BadDropFunc drops a plain function's error.
func BadDropFunc() {
	step() // WANT error-discipline
}

// BadDropPair drops a (value, error) pair entirely.
func BadDropPair() {
	pair() // WANT error-discipline
}

// GoodHandled checks the error.
func GoodHandled(v *vec) error {
	if err := v.SetElement(0, 1); err != nil {
		return err
	}
	return nil
}

// GoodExplicitDiscard acknowledges the drop visibly.
func GoodExplicitDiscard(v *vec) {
	_ = v.SetElement(0, 1)
}

// GoodNoError calls something with no error to drop.
func GoodNoError(v *vec) {
	v.Wait()
	clean()
}

// GoodAnnotated suppresses a known-impossible error with a reason.
func GoodAnnotated(v *vec) {
	v.SetElement(0, 1) //grblint:ignore error-discipline index 0 is always in range here
}

// The try/catch pair: try panics for the enclosing function's deferred
// catch.
type failure struct{ err error }

func try(err error) {
	if err != nil {
		panic(failure{err})
	}
}

func catch(err *error) {
	if r := recover(); r != nil {
		f, ok := r.(failure)
		if !ok {
			panic(r)
		}
		*err = f.err
	}
}

// GoodTry hands its errors to its own deferred catch.
func GoodTry(v *vec) (_ int, err error) {
	defer catch(&err)
	try(v.SetElement(0, 1))
	n, err := pair()
	try(err)
	for i := 0; i < n; i++ {
		try(step())
	}
	return n, nil
}

// BadTryUncaught has no catch to recover its try.
func BadTryUncaught() error {
	try(step()) // WANT error-discipline
	return nil
}

// BadTryInLiteral defers catch, but the literal may run on another
// goroutine.
func BadTryInLiteral(apply func(func())) (err error) {
	defer catch(&err)
	apply(func() {
		try(step()) // WANT error-discipline
	})
	return nil
}

// BadTryInGo panics on a goroutine no catch is on.
func BadTryInGo() (err error) {
	defer catch(&err)
	go try(step()) // WANT error-discipline // WANT goroutine-lifecycle
	return nil
}

// GoodCatchOnly may defer catch without calling try.
func GoodCatchOnly() (err error) {
	defer catch(&err)
	return step()
}
