// Package grb is a pure-Go, generic implementation of the GraphBLAS: sparse
// linear algebra over arbitrary semirings, designed as the substrate for the
// LAGraph algorithm collection.
//
// The package follows the GraphBLAS C API specification in structure and
// semantics — opaque Matrix and Vector objects, masks, accumulators,
// descriptors, and a non-blocking execution model with pending tuples and
// zombies — but maps the C API's polymorphism onto Go type parameters.
//
// All operations are safe for concurrent use on distinct objects. A single
// Matrix or Vector must not be mutated concurrently.
package grb

import "errors"

// API errors, mirroring the GraphBLAS C API error classes.
var (
	// ErrUninitialized is returned when an operation receives a nil object.
	ErrUninitialized = errors.New("grb: uninitialized (nil) object")
	// ErrDimensionMismatch is returned when object dimensions are not
	// compatible with the requested operation.
	ErrDimensionMismatch = errors.New("grb: dimension mismatch")
	// ErrIndexOutOfBounds is returned when a row or column index lies
	// outside the object's dimensions.
	ErrIndexOutOfBounds = errors.New("grb: index out of bounds")
	// ErrInvalidValue is returned for malformed arguments (negative sizes,
	// unsorted import arrays, ...).
	ErrInvalidValue = errors.New("grb: invalid value")
	// ErrNoValue is returned by element extraction when no entry is stored
	// at the requested position.
	ErrNoValue = errors.New("grb: no entry at index")
	// ErrEmptyObject is returned by reductions without an identity over an
	// object holding no entries.
	ErrEmptyObject = errors.New("grb: empty object")
	// ErrCanceled is returned when a caller-supplied deadline or
	// cancellation interrupts a multi-step computation. Kernels themselves
	// never observe deadlines (they are deterministic functions of their
	// operands); the algorithm layers check a context between whole
	// GraphBLAS operations and wrap this sentinel, so callers match with
	// errors.Is across every layer.
	ErrCanceled = errors.New("grb: operation canceled")
	// ErrCorrupt is returned when serialized bytes fail integrity or shape
	// validation during deserialization: a truncated stream, a version the
	// decoder does not speak, dimensions that contradict the array lengths,
	// or indices out of range. Every Deserialize* failure wraps this
	// sentinel, so a caller holding untrusted bytes needs exactly one
	// errors.Is check to distinguish "bad bytes" from programming errors.
	ErrCorrupt = errors.New("grb: corrupt serialized data")
)

// Int is the constraint satisfied by the built-in signed and unsigned
// integer types.
type Int interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64
}

// Float is the constraint satisfied by the built-in floating point types.
type Float interface{ ~float32 | ~float64 }

// Number is the constraint satisfied by every built-in numeric type for
// which the built-in operator sets are defined.
type Number interface{ Int | Float }

// UnaryOp maps a single input value to an output value, as used by Apply.
type UnaryOp[A, C any] func(A) C

// BinaryOp combines two values. It is the element-wise operator of
// eWiseAdd/eWiseMult, the multiplicative operator of a semiring, the
// duplicate-resolution operator of Build, and the accumulator of every
// operation.
type BinaryOp[A, B, C any] func(A, B) C

// IndexUnaryOp maps a stored value together with its position to an output
// value. It drives Select and ApplyIndex. For vectors the column index j is
// always 0.
type IndexUnaryOp[A, C any] func(a A, i, j int) C

// Monoid is an associative BinaryOp with an identity element. Terminal, if
// non-nil, reports whether a value is an annihilator for the operation
// (e.g. true for LOR, 0 for TIMES over integers): once a reduction reaches
// a terminal value it may stop early. The paper (§II-A) describes this
// early-exit mechanism as the enabler of direction-optimized BFS. Build a
// custom monoid as a composite literal; never reassign Op or Terminal on a
// value a built-in constructor returned, which the reductions may run by
// name.
type Monoid[T any] struct {
	Op       func(T, T) T
	Identity T
	Terminal func(T) bool // nil if the monoid has no terminal value

	// ops names the monoid when a built-in constructor made it, for the
	// reductions to run its arithmetic itself (mono.go); a literal's is zero.
	ops monoidTag
}

// Semiring pairs an additive Monoid with a multiplicative BinaryOp, the
// ⊕.⊗ of the GraphBLAS math specification. Build a custom one as a
// composite literal; do not reassign Add or Mul on a value a built-in
// constructor returned, which the kernels may multiply by name.
type Semiring[A, B, C any] struct {
	Add Monoid[C]
	Mul BinaryOp[A, B, C]

	// ops names the pair when a built-in constructor made it: the kernels
	// then run the arithmetic itself (mono.go) instead of calling Add.Op
	// and Mul per product. A composite literal leaves it zero.
	ops opsTag
}

// opsTag names a built-in semiring whose operators the kernels can run as
// visible arithmetic. The zero tag is "whatever Add and Mul say": the
// generic loops.
type opsTag uint8

const (
	opsGeneric opsTag = iota
	opsPlusFirst
	opsPlusSecond
	opsPlusPair
	opsMinFirst
	opsMinSecond
	opsMinPlus
	opsLOrFirst
	opsAnyFirst
)

// opsNames are the tags as op records spell them (obs.OpRecord.Ops);
// opsSwapped maps each to the tag of the same semiring with its multiplier's
// arguments exchanged, as MxV runs it: first and second trade places. The
// traversal semirings have no second-multiplier loop, so swapped they run
// the closures.
var (
	opsNames   = [...]string{"", "plus.first", "plus.second", "plus.pair", "min.first", "min.second", "min.plus", "lor.first", "any.first"}
	opsSwapped = [...]opsTag{opsGeneric, opsPlusSecond, opsPlusFirst, opsPlusPair, opsMinSecond, opsMinFirst, opsMinPlus, opsGeneric, opsGeneric}
)

func (t opsTag) String() string  { return opsNames[t] }
func (t opsTag) swapped() opsTag { return opsSwapped[t] }

// monoidTag names a built-in monoid whose operator the reductions can run
// as visible arithmetic. The zero tag is "whatever Op says".
type monoidTag uint8

const (
	monoidGeneric monoidTag = iota
	monoidPlus
	monoidTimes
	monoidMin
	monoidMax
	monoidLOr
	monoidLAnd
)

//
// Built-in unary operators.
//

// Identity returns the identity unary operator.
func Identity[T any]() UnaryOp[T, T] { return func(x T) T { return x } }

// AbsOp returns |x| for signed numeric types.
func AbsOp[T Number]() UnaryOp[T, T] {
	return func(x T) T {
		if x < 0 {
			return -x
		}
		return x
	}
}

// AInv returns the additive inverse operator -x.
func AInv[T Number]() UnaryOp[T, T] { return func(x T) T { return -x } }

// MInv returns the multiplicative inverse operator 1/x.
func MInv[T Float]() UnaryOp[T, T] { return func(x T) T { return 1 / x } }

// LNot returns logical negation.
func LNot() UnaryOp[bool, bool] { return func(x bool) bool { return !x } }

// One returns the operator that maps every input to 1, useful for
// converting a matrix to its pattern.
func One[A any, C Number]() UnaryOp[A, C] { return func(A) C { return 1 } }

//
// Built-in binary operators.
//

// First returns f(x,y) = x.
func First[A, B any]() BinaryOp[A, B, A] { return func(x A, _ B) A { return x } }

// Second returns f(x,y) = y.
func Second[A, B any]() BinaryOp[A, B, B] { return func(_ A, y B) B { return y } }

// Pair returns f(x,y) = 1 regardless of the inputs (the ONEB operator of
// the v2 C API), the workhorse of triangle counting.
func Pair[A, B any, C Number]() BinaryOp[A, B, C] { return func(A, B) C { return 1 } }

// Plus returns x + y.
func Plus[T Number]() BinaryOp[T, T, T] { return func(x, y T) T { return x + y } }

// Minus returns x - y.
func Minus[T Number]() BinaryOp[T, T, T] { return func(x, y T) T { return x - y } }

// Times returns x * y.
func Times[T Number]() BinaryOp[T, T, T] { return func(x, y T) T { return x * y } }

// Div returns x / y.
func Div[T Number]() BinaryOp[T, T, T] { return func(x, y T) T { return x / y } }

// MinOp returns min(x, y).
func MinOp[T Number]() BinaryOp[T, T, T] {
	return func(x, y T) T {
		if y < x {
			return y
		}
		return x
	}
}

// MaxOp returns max(x, y).
func MaxOp[T Number]() BinaryOp[T, T, T] {
	return func(x, y T) T {
		if y > x {
			return y
		}
		return x
	}
}

// LOr returns logical or.
func LOr() BinaryOp[bool, bool, bool] { return func(x, y bool) bool { return x || y } }

// LAnd returns logical and.
func LAnd() BinaryOp[bool, bool, bool] { return func(x, y bool) bool { return x && y } }

// LXor returns logical exclusive-or.
func LXor() BinaryOp[bool, bool, bool] { return func(x, y bool) bool { return x != y } }

// Eq returns x == y.
func Eq[T comparable]() BinaryOp[T, T, bool] { return func(x, y T) bool { return x == y } }

// Ne returns x != y.
func Ne[T comparable]() BinaryOp[T, T, bool] { return func(x, y T) bool { return x != y } }

// Lt returns x < y.
func Lt[T Number]() BinaryOp[T, T, bool] { return func(x, y T) bool { return x < y } }

// Gt returns x > y.
func Gt[T Number]() BinaryOp[T, T, bool] { return func(x, y T) bool { return x > y } }

// Le returns x <= y.
func Le[T Number]() BinaryOp[T, T, bool] { return func(x, y T) bool { return x <= y } }

// Ge returns x >= y.
func Ge[T Number]() BinaryOp[T, T, bool] { return func(x, y T) bool { return x >= y } }

//
// Built-in monoids.
//

// PlusMonoid is the (+, 0) monoid.
func PlusMonoid[T Number]() Monoid[T] {
	return Monoid[T]{Op: func(x, y T) T { return x + y }, Identity: 0, ops: monoidPlus}
}

// TimesMonoid is the (*, 1) monoid. For integer types 0 is terminal; for
// floating point types it is not, since 0·Inf is NaN.
func TimesMonoid[T Number]() Monoid[T] {
	m := Monoid[T]{Op: func(x, y T) T { return x * y }, Identity: 1, ops: monoidTimes}
	if T(1)/2 == 0 { // an integer type
		m.Terminal = func(x T) bool { return x == 0 }
	}
	return m
}

// MinMonoid is the (min, +inf) monoid; the maximum representable value is
// the identity and the minimum representable value is terminal.
func MinMonoid[T Number]() Monoid[T] {
	hi, lo := maxVal[T](), minVal[T]()
	return Monoid[T]{
		Op: func(x, y T) T {
			if y < x {
				return y
			}
			return x
		},
		Identity: hi,
		Terminal: func(x T) bool { return x == lo },
		ops:      monoidMin,
	}
}

// MaxMonoid is the (max, -inf) monoid.
func MaxMonoid[T Number]() Monoid[T] {
	hi, lo := maxVal[T](), minVal[T]()
	return Monoid[T]{
		Op: func(x, y T) T {
			if y > x {
				return y
			}
			return x
		},
		Identity: lo,
		Terminal: func(x T) bool { return x == hi },
		ops:      monoidMax,
	}
}

// LOrMonoid is the (||, false) monoid; true is terminal. Its terminal value
// is what makes the "pull" step of direction-optimized BFS cheap.
func LOrMonoid() Monoid[bool] {
	return Monoid[bool]{
		Op:       func(x, y bool) bool { return x || y },
		Identity: false,
		Terminal: func(x bool) bool { return x },
		ops:      monoidLOr,
	}
}

// LAndMonoid is the (&&, true) monoid; false is terminal.
func LAndMonoid() Monoid[bool] {
	return Monoid[bool]{
		Op:       func(x, y bool) bool { return x && y },
		Identity: true,
		Terminal: func(x bool) bool { return !x },
		ops:      monoidLAnd,
	}
}

// LXorMonoid is the (xor, false) monoid.
func LXorMonoid() Monoid[bool] {
	return Monoid[bool]{Op: func(x, y bool) bool { return x != y }, Identity: false}
}

// AnyMonoid is the ANY monoid of SuiteSparse, which may return either
// operand: here it keeps the first. Every value is terminal, so a fold
// stops at its first entry, and every kernel keeps the product of smallest
// inner index.
func AnyMonoid[T any]() Monoid[T] {
	var zero T
	return Monoid[T]{
		Op:       func(x, _ T) T { return x },
		Identity: zero,
		Terminal: func(T) bool { return true },
	}
}

//
// Built-in semirings. The names follow the AddMonoid+MulOp convention of
// the C API (PlusTimes = GrB_PLUS_TIMES_SEMIRING_*).
//

// PlusTimes is the conventional arithmetic semiring (+, *).
func PlusTimes[T Number]() Semiring[T, T, T] {
	return Semiring[T, T, T]{Add: PlusMonoid[T](), Mul: Times[T]()}
}

// MinPlus is the tropical semiring (min, +) of shortest paths.
func MinPlus[T Number]() Semiring[T, T, T] {
	return Semiring[T, T, T]{Add: MinMonoid[T](), Mul: Plus[T](), ops: opsMinPlus}
}

// MaxPlus is the (max, +) semiring of critical paths.
func MaxPlus[T Number]() Semiring[T, T, T] {
	return Semiring[T, T, T]{Add: MaxMonoid[T](), Mul: Plus[T]()}
}

// MinTimes is the (min, *) semiring.
func MinTimes[T Number]() Semiring[T, T, T] {
	return Semiring[T, T, T]{Add: MinMonoid[T](), Mul: Times[T]()}
}

// MinMax is the (min, max) semiring of bottleneck paths.
func MinMax[T Number]() Semiring[T, T, T] {
	return Semiring[T, T, T]{Add: MinMonoid[T](), Mul: MaxOp[T]()}
}

// LorLand is the boolean (||, &&) semiring of reachability; the
// LogicalSemiring of Fig. 2 of the paper.
func LorLand() Semiring[bool, bool, bool] {
	return Semiring[bool, bool, bool]{Add: LOrMonoid(), Mul: LAnd()}
}

// PlusPair is the (+, pair) semiring that counts set intersections; the
// triangle-counting semiring.
func PlusPair[A, B any, C Number]() Semiring[A, B, C] {
	return Semiring[A, B, C]{Add: PlusMonoid[C](), Mul: Pair[A, B, C](), ops: opsPlusPair}
}

// PlusFirst is the (+, first) semiring.
func PlusFirst[T Number]() Semiring[T, T, T] {
	return Semiring[T, T, T]{Add: PlusMonoid[T](), Mul: First[T, T](), ops: opsPlusFirst}
}

// PlusSecond is the (+, second) semiring.
func PlusSecond[T Number]() Semiring[T, T, T] {
	return Semiring[T, T, T]{Add: PlusMonoid[T](), Mul: Second[T, T](), ops: opsPlusSecond}
}

// MinFirst is the (min, first) semiring: w = A min.first v selects the
// smallest contributing row value, used by BFS parent computation.
func MinFirst[T Number]() Semiring[T, T, T] {
	return Semiring[T, T, T]{Add: MinMonoid[T](), Mul: First[T, T](), ops: opsMinFirst}
}

// MinSecond is the (min, second) semiring.
func MinSecond[T Number]() Semiring[T, T, T] { return MinSecondOf[T, T]() }

// MinSecondOf is the (min, second) semiring over a left operand of any type
// A, which second ignores, and a right one of type T: w = A min.second u
// carries into w(i) the least u(j) over the entries A(i,j), whatever A
// stores, as FastSV's labels meet the weighted adjacency.
func MinSecondOf[A any, T Number]() Semiring[A, T, T] {
	return Semiring[A, T, T]{Add: MinMonoid[T](), Mul: Second[A, T](), ops: opsMinSecond}
}

// MaxSecond is the (max, second) semiring.
func MaxSecond[T Number]() Semiring[T, T, T] {
	return Semiring[T, T, T]{Add: MaxMonoid[T](), Mul: Second[T, T]()}
}

// AnySecond is the (any, second) semiring: the cheapest possible "does a
// neighbour exist, and carry its value" reduction.
func AnySecond[T any]() Semiring[T, T, T] {
	return Semiring[T, T, T]{Add: AnyMonoid[T](), Mul: Second[T, T]()}
}

// AnyFirst is the (any, first) semiring over one type.
func AnyFirst[T any]() Semiring[T, T, T] { return AnyFirstOf[T, T]() }

// AnyFirstOf is the (any, first) semiring over a left operand of type T and
// a right one of any type B: w = u any.first A carries into w(j) the value
// of one entry of u adjacent to j, as BFS parents carry a parent id.
func AnyFirstOf[T, B any]() Semiring[T, B, T] {
	return Semiring[T, B, T]{Add: AnyMonoid[T](), Mul: First[T, B](), ops: opsAnyFirst}
}

// LOrFirst is the (||, first) semiring over a boolean left operand and a
// right one of any type B: w = u lor.first A marks each j adjacent to a true
// entry of u, the step of level BFS (Fig. 2), whose pull the LOR terminal
// ends at the first true product.
func LOrFirst[B any]() Semiring[bool, B, bool] {
	return Semiring[bool, B, bool]{Add: LOrMonoid(), Mul: First[bool, B](), ops: opsLOrFirst}
}

// maxVal returns the largest representable value of T: the MIN monoid
// identity ("+infinity"; literally +Inf for floating point types). It is
// computed by doubling until overflow, which Go defines as wraparound for
// integers and saturation to +Inf for floats.
func maxVal[T Number]() T {
	m := T(1)
	for {
		n := m + m
		if n <= m {
			break
		}
		m = n
	}
	return m - 1 + m
}

// minVal returns the smallest representable value of T: the MAX monoid
// identity (0 for unsigned, -Inf for floats).
func minVal[T Number]() T {
	if T(0)-T(1) > 0 { // unsigned
		return 0
	}
	return -maxVal[T]() - 1
}
