package grb

import (
	"math"
	"slices"
)

// The inner loops of the product kernels, twice. A looper is everything the
// pull dot, the Gustavson rows and the dense push do per product; a
// Semiring is one by calling its closures — Mul (under MxV, through the
// argument-swapping wrapper), Add.Op and Add.Terminal, three indirect calls
// around one + or <. The semirings the built-in constructors tag (opsTag,
// types.go) have the same looper with the arithmetic written out:
//
//   - monoLoops, the plus and min semirings over float64 and int64 — the
//     element types the GAP kernels multiply in — whose dot and pull pick
//     one loop per tag once a call, so a pulled product is a lane probe and
//     one + or <, nothing resolved per product or per row. A multiplier
//     that never loads its right operand (first, pair) takes one of any
//     type, as FastSV's int64 labels meet the float64 adjacency;
//   - lorFirst and anyFirst, the traversal semirings: a positional first
//     under a terminal monoid, lor over bool and any over any element type,
//     against a right operand of any type, which they never load.
//
// Each loop keeps its generic twin's association exactly: the first product
// assigned, the rest folded in the same order, min spelt `y < x`. A loop may
// stop folding into a cell at a terminal value whether or not its twin
// does: every built-in terminal absorbs (z ⊕ y = z; ANY keeps its first
// operand), so an exit saves work and never changes a bit. A tagged
// semiring and its literal-built twin therefore agree bitwise, and a
// positional multiplier (first, second, pair) never loads the operand it
// ignores.
//
// The heap row merge (the heap mxm, and a push past the lane cap) and
// sparseDot multiply through the closures whatever the tag: a census of
// both bench/e2e workloads puts under 0.4 % of any kernel's products there.

// looper is a semiring's inner loops over left values []L, right values
// []R and results []T.
type looper[L, R, T any] interface {
	// dot is one dot product whose left operand is held as lanes (seen, lx)
	// and whose right is the entries [lo, hi) of (ri, rx): it probes the
	// lanes at each ri[q], meeting matches in ascending index, and stops
	// early once the additive monoid reaches a terminal value.
	dot(seen []bool, lx []L, ri []int, rx []R, lo, hi int) (T, bool)
	// pull is dot for each row j in [lo, hi) of c, a matrix that is not
	// hypersparse, that mv admits: a found product lands in (zb, zx) at j.
	// It returns how many did.
	pull(seen []bool, lx []L, c *cs[R], lo, hi int, mv *maskVec, zb []bool, zx []T) int
	// scatter folds the products of entries [lo, hi) of (li, lx) — frontier
	// entries, or a row of A — with the major vectors of c they select into
	// a dense accumulator (seen, val), appending to touched each cell first
	// reached; it leaves a cell alone once it holds a terminal value.
	scatter(li []int, lx []L, lo, hi int, c *cs[R], seen []bool, val []T, touched []int) []int
	// marked folds the products of a row (li, lx) of A with the rows of c it
	// selects into the cells a mask-first row's mark lane opens.
	marked(li []int, lx []L, c *cs[R], mark []uint8, val []T)
	// fold merges one push chunk's partial (pi, px) into the accumulator.
	fold(pi []int, px []T, seen []bool, val []T, touched []int) []int
}

// loopsOf returns the loops a kernel multiplies with: the tagged ones when s
// is tagged and its types are those the loops exist for (st is then told
// which, for the op record), s's own otherwise.
func loopsOf[L, R, T any](s *Semiring[L, R, T], st *kernelStats) looper[L, R, T] {
	var m looper[L, R, T]
	ok := false
	switch s.ops {
	case opsGeneric:
	case opsLOrFirst:
		m, ok = any(lorFirst[R]{}).(looper[L, R, T])
	case opsAnyFirst:
		m, ok = any(anyFirst[L, R]{}).(looper[L, R, T])
	default:
		if m, ok = any(monoLoops[float64, R]{&monoFloat64[s.ops]}).(looper[L, R, T]); !ok {
			m, ok = any(monoLoops[int64, R]{&monoInt64[s.ops]}).(looper[L, R, T])
		}
		_, same := any((*R)(nil)).(*L) // a multiplier that loads its right operand reads it as []E
		ok = ok && (same || !monoInt64[s.ops].right)
	}
	if !ok {
		return s
	}
	if st != nil {
		st.ops = s.ops
	}
	return m
}

func (s *Semiring[L, R, T]) dot(seen []bool, lx []L, ri []int, rx []R, lo, hi int) (acc T, found bool) {
	for q := lo; q < hi; q++ {
		i := ri[q]
		if !seen[i] {
			continue
		}
		p := s.Mul(lx[i], rx[q])
		if found {
			acc = s.Add.Op(acc, p)
		} else {
			acc, found = p, true
		}
		if s.Add.Terminal != nil && s.Add.Terminal(acc) {
			return acc, true
		}
	}
	return acc, found
}

func (s *Semiring[L, R, T]) pull(seen []bool, lx []L, c *cs[R], lo, hi int, mv *maskVec, zb []bool, zx []T) (n int) {
	for j := lo; j < hi; j++ {
		if mv.admitsLane(j) {
			if zx[j], zb[j] = s.dot(seen, lx, c.i, c.x, c.p[j], c.p[j+1]); zb[j] {
				n++
			}
		}
	}
	return n
}

func (s *Semiring[L, R, T]) scatter(li []int, lx []L, lo, hi int, c *cs[R], seen []bool, val []T, touched []int) []int {
	for t := lo; t < hi; t++ {
		k, ok := c.findMajor(li[t])
		if !ok {
			continue
		}
		ri, rx := c.vec(k)
		lv := lx[t]
		for q, j := range ri {
			if !seen[j] {
				seen[j], val[j] = true, s.Mul(lv, rx[q])
				touched = append(touched, j)
			} else if s.Add.Terminal == nil || !s.Add.Terminal(val[j]) {
				val[j] = s.Add.Op(val[j], s.Mul(lv, rx[q]))
			}
		}
	}
	return touched
}

func (s *Semiring[L, R, T]) marked(li []int, lx []L, c *cs[R], mark []uint8, val []T) {
	for t := range li {
		k, ok := c.findMajor(li[t])
		if !ok {
			continue
		}
		ri, rx := c.vec(k)
		lv := lx[t]
		for q, j := range ri {
			switch mark[j] {
			case markOpen:
				mark[j], val[j] = markFilled, s.Mul(lv, rx[q])
			case markFilled:
				val[j] = s.Add.Op(val[j], s.Mul(lv, rx[q]))
			}
		}
	}
}

func (s *Semiring[L, R, T]) fold(pi []int, px []T, seen []bool, val []T, touched []int) []int {
	for t, j := range pi {
		if !seen[j] {
			seen[j], val[j] = true, px[t]
			touched = append(touched, j)
		} else if s.Add.Terminal == nil || !s.Add.Terminal(val[j]) {
			val[j] = s.Add.Op(val[j], px[t])
		}
	}
	return touched
}

// monoOps is a tagged semiring over element type E: which operand values
// make a product, and which monoid folds them.
type monoOps[E Number] struct {
	tag         opsTag // picks dot's loop
	left, right bool   // the multiplier reads its left, its right operand: first, second, pair (neither), plus (both)
	min         bool   // the monoid is min and lo its terminal value; otherwise plus, which has none
	lo          E
}

// monoTable resolves every plus and min tag over E, indexed by tag.
func monoTable[E Number]() (t [opsMinPlus + 1]monoOps[E]) {
	for tag := opsPlusFirst; tag <= opsMinPlus; tag++ {
		t[tag] = monoOps[E]{
			tag:   tag,
			left:  tag == opsPlusFirst || tag == opsMinFirst || tag == opsMinPlus,
			right: tag == opsPlusSecond || tag == opsMinSecond || tag == opsMinPlus,
			min:   tag >= opsMinFirst, lo: minVal[E](),
		}
	}
	return t
}

var (
	monoFloat64 = monoTable[float64]()
	monoInt64   = monoTable[int64]()
)

// monoLoops is monoOps's loops against right values of type R. Only the
// multipliers that load them (second, plus) read them, as []E, and loopsOf
// gives those no R but E; asE hands any other a nil slice it never reads.
type monoLoops[E Number, R any] struct{ *monoOps[E] }

func asE[E, R any](r []R) []E { e, _ := any(r).([]E); return e }

// rowProduct resolves the products of l[t] with right values r[lo:hi]: a
// multiplier that ignores its right operand has one, c, for the whole
// vector (rr is nil); otherwise product q is rr[q], plus c when the
// multiplier reads both.
func (m monoOps[E]) rowProduct(l []E, t int, r []E, lo, hi int) (c E, rr []E) {
	c = 1
	if m.left {
		c = l[t]
	}
	if m.right {
		rr = r[lo:hi]
	}
	return c, rr
}

// add is the monoid's operator, spelt as PlusMonoid and MinMonoid spell it.
func (m monoOps[E]) add(x, y E) E {
	if !m.min {
		return x + y
	}
	if y < x {
		return y
	}
	return x
}

func (m monoLoops[E, R]) dot(seen []bool, l []E, ri []int, rs []R, lo, hi int) (acc E, found bool) {
	q := lo
	for ; q < hi && !seen[ri[q]]; q++ {
	}
	if q == hi {
		return acc, false
	}
	// The first match is i, at q. The rest are cut so that the compiler
	// drops every bounds check but the lane probe's.
	i, ri := ri[q], ri[q+1:hi]
	l, r, rr := l[:len(seen)], []E(nil), []E(nil)
	if m.right {
		r = asE[E](rs)
		rr = r[q+1 : hi][:len(ri)]
	}
	switch m.tag {
	case opsPlusFirst:
		acc = l[i]
		for _, i := range ri {
			if seen[i] {
				acc += l[i]
			}
		}
	case opsPlusSecond:
		acc = r[q]
		for k, i := range ri {
			if seen[i] {
				acc += rr[k]
			}
		}
	case opsPlusPair:
		acc = 1
		for _, i := range ri {
			if seen[i] {
				acc++
			}
		}
	case opsMinFirst:
		for acc, q = l[i], 0; q < len(ri) && acc != m.lo; q++ {
			if i := ri[q]; seen[i] && l[i] < acc {
				acc = l[i]
			}
		}
	case opsMinSecond:
		for acc, q = r[q], 0; q < len(ri) && acc != m.lo; q++ {
			if seen[ri[q]] && rr[q] < acc {
				acc = rr[q]
			}
		}
	default: // min.plus
		for acc, q = l[i]+r[q], 0; q < len(ri) && acc != m.lo; q++ {
			if i := ri[q]; seen[i] && l[i]+rr[q] < acc {
				acc = l[i] + rr[q]
			}
		}
	}
	return acc, true
}

// pull has one loop per tag, each row's dot written out in it as dot
// writes it: a row costs its probes and its arithmetic, not a call.
func (m monoLoops[E, R]) pull(seen []bool, l []E, c *cs[R], lo, hi int, mv *maskVec, zb []bool, zx []E) (n int) {
	l, ci, cx, cp := l[:len(seen)], c.i, asE[E](c.x), c.p
	switch m.tag {
	case opsPlusFirst:
		for j := lo; j < hi; j++ {
			if q, end := firstMatch(seen, ci, cp[j], cp[j+1], mv, j); q < end {
				acc := l[ci[q]]
				for _, i := range ci[q+1 : end] {
					if seen[i] {
						acc += l[i]
					}
				}
				zb[j], zx[j], n = true, acc, n+1
			}
		}
	case opsPlusSecond:
		for j := lo; j < hi; j++ {
			if q, end := firstMatch(seen, ci, cp[j], cp[j+1], mv, j); q < end {
				ri, acc := ci[q+1:end], cx[q]
				rr := cx[q+1 : end][:len(ri)]
				for k, i := range ri {
					if seen[i] {
						acc += rr[k]
					}
				}
				zb[j], zx[j], n = true, acc, n+1
			}
		}
	case opsPlusPair:
		for j := lo; j < hi; j++ {
			if q, end := firstMatch(seen, ci, cp[j], cp[j+1], mv, j); q < end {
				acc := E(1)
				for _, i := range ci[q+1 : end] {
					if seen[i] {
						acc++
					}
				}
				zb[j], zx[j], n = true, acc, n+1
			}
		}
	case opsMinFirst:
		for j := lo; j < hi; j++ {
			if q, end := firstMatch(seen, ci, cp[j], cp[j+1], mv, j); q < end {
				ri, acc := ci[q+1:end], l[ci[q]]
				for k := 0; k < len(ri) && acc != m.lo; k++ {
					if i := ri[k]; seen[i] && l[i] < acc {
						acc = l[i]
					}
				}
				zb[j], zx[j], n = true, acc, n+1
			}
		}
	case opsMinSecond:
		for j := lo; j < hi; j++ {
			if q, end := firstMatch(seen, ci, cp[j], cp[j+1], mv, j); q < end {
				ri, acc := ci[q+1:end], cx[q]
				rr := cx[q+1 : end][:len(ri)]
				for k := 0; k < len(ri) && acc != m.lo; k++ {
					if seen[ri[k]] && rr[k] < acc {
						acc = rr[k]
					}
				}
				zb[j], zx[j], n = true, acc, n+1
			}
		}
	default: // min.plus
		for j := lo; j < hi; j++ {
			if q, end := firstMatch(seen, ci, cp[j], cp[j+1], mv, j); q < end {
				ri, acc := ci[q+1:end], l[ci[q]]+cx[q]
				rr := cx[q+1 : end][:len(ri)]
				for k := 0; k < len(ri) && acc != m.lo; k++ {
					if i := ri[k]; seen[i] && l[i]+rr[k] < acc {
						acc = l[i] + rr[k]
					}
				}
				zb[j], zx[j], n = true, acc, n+1
			}
		}
	}
	return n
}

// firstMatch is where row j, entries [q, end) of ri, first meets a seen
// lane: end when it never does or mv rejects the row.
func firstMatch(seen []bool, ri []int, q, end int, mv *maskVec, j int) (int, int) {
	if !mv.admitsLane(j) {
		return end, end
	}
	for q < end && !seen[ri[q]] {
		q++
	}
	return q, end
}

func (m monoLoops[E, R]) scatter(li []int, l []E, lo, hi int, c *cs[R], seen []bool, val []E, touched []int) []int {
	cx := asE[E](c.x)
	for t := lo; t < hi; t++ {
		if k, ok := c.findMajor(li[t]); ok {
			touched = m.scatterRow(l, t, c.i, cx, c.p[k], c.p[k+1], seen, val, touched)
		}
	}
	return touched
}

// scatterRow is scatter's loop for one left entry, l[t], and the entries
// [lo, hi) of (ri, r).
func (m monoOps[E]) scatterRow(l []E, t int, ri []int, r []E, lo, hi int, seen []bool, val []E, touched []int) []int {
	c, rr := m.rowProduct(l, t, r, lo, hi)
	if rr == nil {
		for _, j := range ri[lo:hi] {
			if !seen[j] {
				seen[j], val[j] = true, c
				touched = append(touched, j)
			} else if !m.min || val[j] != m.lo {
				val[j] = m.add(val[j], c)
			}
		}
		return touched
	}
	for q, j := range ri[lo:hi] {
		p := rr[q]
		if m.left {
			p = c + p
		}
		if !seen[j] {
			seen[j], val[j] = true, p
			touched = append(touched, j)
		} else if !m.min || val[j] != m.lo {
			val[j] = m.add(val[j], p)
		}
	}
	return touched
}

func (m monoLoops[E, R]) marked(li []int, l []E, c *cs[R], mark []uint8, val []E) {
	cx := asE[E](c.x)
	for t := range li {
		if k, ok := c.findMajor(li[t]); ok {
			m.markedRow(l, t, c.i, cx, c.p[k], c.p[k+1], mark, val)
		}
	}
}

func (m monoOps[E]) markedRow(l []E, t int, ri []int, r []E, lo, hi int, mark []uint8, val []E) {
	c, rr := m.rowProduct(l, t, r, lo, hi)
	if rr == nil {
		for _, j := range ri[lo:hi] {
			switch mark[j] {
			case markOpen:
				mark[j], val[j] = markFilled, c
			case markFilled:
				val[j] = m.add(val[j], c)
			}
		}
		return
	}
	for q, j := range ri[lo:hi] {
		p := rr[q]
		if m.left {
			p = c + p
		}
		switch mark[j] {
		case markOpen:
			mark[j], val[j] = markFilled, p
		case markFilled:
			val[j] = m.add(val[j], p)
		}
	}
}

// A chunk partial folds as one more row whose products are its values:
// scatter under the second multiplier.
func (m monoLoops[E, R]) fold(pi []int, px []E, seen []bool, val []E, touched []int) []int {
	second := monoOps[E]{right: true, min: m.min, lo: m.lo}
	return second.scatterRow(nil, 0, pi, px, 0, len(pi), seen, val, touched)
}

// lorFirst is lor.first: a product is its left value, and true is the
// terminal. Until a cell is true, or-ing x into it makes it x.
type lorFirst[R any] struct{}

func (lorFirst[R]) dot(seen []bool, l []bool, ri []int, _ []R, lo, hi int) (acc, found bool) {
	for _, i := range ri[lo:hi] {
		if seen[i] {
			if acc, found = l[i], true; acc {
				break
			}
		}
	}
	return acc, found
}

func (lorFirst[R]) pull(seen []bool, l []bool, c *cs[R], lo, hi int, mv *maskVec, zb []bool, zx []bool) (n int) {
	l, ci, cp := l[:len(seen)], c.i, c.p
	for j := lo; j < hi; j++ {
		if q, end := firstMatch(seen, ci, cp[j], cp[j+1], mv, j); q < end {
			acc := l[ci[q]]
			for q++; q < end && !acc; q++ {
				if i := ci[q]; seen[i] {
					acc = l[i]
				}
			}
			zb[j], zx[j], n = true, acc, n+1
		}
	}
	return n
}

func (lorFirst[R]) scatter(li []int, l []bool, lo, hi int, c *cs[R], seen []bool, val []bool, touched []int) []int {
	for t := lo; t < hi; t++ {
		if k, ok := c.findMajor(li[t]); ok {
			lv := l[t]
			for _, j := range c.i[c.p[k]:c.p[k+1]] {
				if !seen[j] {
					seen[j], val[j] = true, lv
					touched = append(touched, j)
				} else {
					val[j] = val[j] || lv
				}
			}
		}
	}
	return touched
}

func (lorFirst[R]) marked(li []int, l []bool, c *cs[R], mark []uint8, val []bool) {
	for t := range li {
		if k, ok := c.findMajor(li[t]); ok {
			lv := l[t]
			for _, j := range c.i[c.p[k]:c.p[k+1]] {
				switch mark[j] {
				case markOpen:
					mark[j], val[j] = markFilled, lv
				case markFilled:
					val[j] = val[j] || lv
				}
			}
		}
	}
}

func (lorFirst[R]) fold(pi []int, px []bool, seen []bool, val []bool, touched []int) []int {
	for t, j := range pi {
		if !seen[j] {
			seen[j], val[j] = true, px[t]
			touched = append(touched, j)
		} else {
			val[j] = val[j] || px[t]
		}
	}
	return touched
}

// anyFirst is any.first over E: a product is its left value, and any's
// operator keeps its first operand, so every loop keeps a cell's first
// product.
type anyFirst[E, R any] struct{}

func (anyFirst[E, R]) dot(seen []bool, l []E, ri []int, _ []R, lo, hi int) (acc E, found bool) {
	for _, i := range ri[lo:hi] {
		if seen[i] {
			return l[i], true
		}
	}
	return acc, false
}

func (anyFirst[E, R]) pull(seen []bool, l []E, c *cs[R], lo, hi int, mv *maskVec, zb []bool, zx []E) (n int) {
	for j := lo; j < hi; j++ {
		if q, end := firstMatch(seen, c.i, c.p[j], c.p[j+1], mv, j); q < end {
			zb[j], zx[j], n = true, l[c.i[q]], n+1
		}
	}
	return n
}

func (anyFirst[E, R]) scatter(li []int, l []E, lo, hi int, c *cs[R], seen []bool, val []E, touched []int) []int {
	for t := lo; t < hi; t++ {
		if k, ok := c.findMajor(li[t]); ok {
			lv := l[t]
			for _, j := range c.i[c.p[k]:c.p[k+1]] {
				if !seen[j] {
					seen[j], val[j] = true, lv
					touched = append(touched, j)
				}
			}
		}
	}
	return touched
}

func (anyFirst[E, R]) marked(li []int, l []E, c *cs[R], mark []uint8, val []E) {
	for t := range li {
		if k, ok := c.findMajor(li[t]); ok {
			lv := l[t]
			for _, j := range c.i[c.p[k]:c.p[k+1]] {
				if mark[j] == markOpen {
					mark[j], val[j] = markFilled, lv
				}
			}
		}
	}
}

func (anyFirst[E, R]) fold(pi []int, px []E, seen []bool, val []E, touched []int) []int {
	for t, j := range pi {
		if !seen[j] {
			seen[j], val[j] = true, px[t]
			touched = append(touched, j)
		}
	}
	return touched
}

// fold folds, in order, the entries of xs that b marks present (nil b:
// all): the first is the accumulator, and the rest fold into it until it is
// a terminal value. Only an empty fold is the identity. A tagged monoid over
// float64, int64 or bool runs it as written-out arithmetic: same order,
// same exits.
func (mon *Monoid[T]) fold(b []bool, xs []T) T {
	j := 0
	if b != nil {
		j = slices.Index(b[:len(xs)], true)
		b = b[j+1 : len(xs)]
	}
	if j < 0 || j == len(xs) {
		return mon.Identity
	}
	acc, xs := xs[j], xs[j+1:]
	if mon.ops != monoidGeneric {
		switch p := any(&acc).(type) {
		case *float64:
			*p = foldNum(mon.ops, *p, b, any(xs).([]float64), math.Inf(-1), math.Inf(1))
			return acc
		case *int64:
			*p = foldNum(mon.ops, *p, b, any(xs).([]int64), math.MinInt64, math.MaxInt64)
			return acc
		case *bool:
			*p = foldBool(mon.ops, *p, b, any(xs).([]bool))
			return acc
		}
	}
	for j, x := range xs {
		if b != nil && !b[j] {
			continue
		}
		if mon.Terminal != nil && mon.Terminal(acc) {
			break
		}
		acc = mon.Op(acc, x)
	}
	return acc
}

// foldNum is fold for the tagged numeric monoids; lo and hi are E's least
// and greatest values, min's and max's terminals (0 is times's over ints).
func foldNum[E Number](tag monoidTag, acc E, b []bool, xs []E, lo, hi E) E {
	term, exits := lo, tag == monoidMin
	switch tag {
	case monoidMax:
		term, exits = hi, true
	case monoidTimes:
		term, exits = 0, E(1)/2 == 0
	}
	for j, x := range xs {
		if exits && acc == term {
			break
		}
		if b != nil && !b[j] {
			continue
		}
		switch tag {
		case monoidPlus:
			acc += x
		case monoidTimes:
			acc *= x
		case monoidMin:
			if x < acc {
				acc = x
			}
		case monoidMax:
			if x > acc {
				acc = x
			}
		}
	}
	return acc
}

// foldBool is foldNum for or and and: until acc is terminal, acc is x.
func foldBool(tag monoidTag, acc bool, b, xs []bool) bool {
	for j, x := range xs {
		if acc == (tag == monoidLOr) {
			break
		}
		if b == nil || b[j] {
			acc = x
		}
	}
	return acc
}
