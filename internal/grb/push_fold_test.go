package grb

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The push kernel's association, stated independently of it: within a chunk
// an output's products are added in frontier order; across chunks the
// partials are added in chunk order, chunk 0's first. pushFoldReference is
// that sentence over maps — what mergeAddParts fixed before the fold
// replaced it — and every emission route must reproduce it bit for bit. It
// multiplies and adds through s's closures, whatever loops s is tagged for.
func pushFoldReference(ui []int, ux []float64, ca *cs[float64], bounds []int, s Semiring[float64, float64, float64]) ([]int, []float64) {
	acc := map[int]float64{}
	for c := 0; c+1 < len(bounds); c++ {
		part := map[int]float64{}
		for t := bounds[c]; t < bounds[c+1]; t++ {
			rk, ok := ca.findMajor(ui[t])
			if !ok {
				continue
			}
			ri, rx := ca.vec(rk)
			for p, j := range ri {
				if old, ok := part[j]; ok {
					part[j] = s.Add.Op(old, s.Mul(ux[t], rx[p]))
				} else {
					part[j] = s.Mul(ux[t], rx[p])
				}
			}
		}
		for j, x := range part {
			if old, ok := acc[j]; ok {
				acc[j] = s.Add.Op(old, x)
			} else {
				acc[j] = x
			}
		}
	}
	zi := make([]int, 0, len(acc))
	for j := range acc {
		zi = append(zi, j)
	}
	sort.Ints(zi)
	zx := make([]float64, len(zi))
	for t, j := range zi {
		zx[t] = acc[j]
	}
	return zi, zx
}

func sameBits(ai []int, ax []float64, bi []int, bx []float64) bool {
	if len(ai) != len(bi) {
		return false
	}
	for k := range ai {
		if ai[k] != bi[k] || math.Float64bits(ax[k]) != math.Float64bits(bx[k]) {
			return false
		}
	}
	return true
}

// cancelling are values whose sums depend on the order they are taken in.
var cancelling = []float64{1e16, -1e16, 1, -1, 0.1, 3, 1e-8, -0.3}

// pushSemirings are the semirings the push tests multiply by: PlusTimes,
// which no loop is tagged for, then each tagged constructor followed by its
// literal-built twin (the generic loops' run of the same arithmetic).
func pushSemirings() []Semiring[float64, float64, float64] {
	type sr = Semiring[float64, float64, float64]
	plus, min := PlusMonoid[float64](), MinMonoid[float64]()
	first, second, pair := First[float64, float64](), Second[float64, float64](), Pair[float64, float64, float64]()
	return []sr{
		PlusTimes[float64](),
		PlusFirst[float64](), {Add: plus, Mul: first},
		PlusSecond[float64](), {Add: plus, Mul: second},
		PlusPair[float64, float64, float64](), {Add: plus, Mul: pair},
		MinFirst[float64](), {Add: min, Mul: first},
		MinSecond[float64](), {Add: min, Mul: second},
		MinPlus[float64](), {Add: min, Mul: Plus[float64]()},
	}
}

// TestPushFoldAssociation: every push semiring over cancellation-prone
// values, chunked, is bitwise the reference association at 1 and at 8
// workers — on both emission routes (a result below the promotion bar is
// sort-emitted, one above it handed over as lanes), at 2¹⁵ outputs as at
// 2000. Past the lane cap the push is one heap row, which has no tagged
// loop: there it is bitwise the one-chunk association, which is the pull's.
func TestPushFoldAssociation(t *testing.T) {
	for _, tc := range []struct {
		name       string
		n, support int
	}{
		{"sort-emit", 2000, 240},
		{"lanes", 2000, 2000},
		{"sort-emit-2^15", 1 << 15, 3000},
		{"past-cap", bitmapMaxCells + 1, 3000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.support)))
			support := rng.Perm(tc.n)[:tc.support]
			const m, deg = 400, 200
			var is, js []int
			var xs []float64
			for i := 0; i < m; i++ {
				for _, k := range rng.Perm(tc.support)[:deg] {
					is, js, xs = append(is, i), append(js, support[k]), append(xs, cancelling[rng.Intn(len(cancelling))])
				}
			}
			a := MustMatrix[float64](m, tc.n)
			if err := a.Build(is, js, xs, nil); err != nil {
				t.Fatal(err)
			}
			u := MustVector[float64](m)
			for i := 0; i < m; i++ {
				_ = u.SetElement(i, cancelling[rng.Intn(len(cancelling))])
			}
			ui, ux := u.materialized()
			ca := a.materializedCSR()
			bounds := workChunks(len(ui), func(t int) int { return deg + 1 }, pushWorkQuantum, pushMaxChunks)
			if len(bounds) < 3 {
				t.Fatalf("%d chunks: the input does not reach the fold", len(bounds)-1)
			}
			for k, s := range pushSemirings() {
				wi, wx := pushFoldReference(ui, ux, ca, bounds, s)
				// The input must tell associations apart, or the test proves
				// nothing: taken as one chunk the sums differ. (A sum of
				// ones, and a minimum, are the same in any order.)
				oi, ox := pushFoldReference(ui, ux, ca, []int{0, len(ui)}, s)
				if k < 5 && sameBits(wi, wx, oi, ox) {
					t.Fatalf("semiring %d: the chunked and the unchunked association agree on this input", k)
				}
				pastCap, chunks := tc.n > bitmapMaxCells, len(bounds)-1
				if pastCap {
					wi, wx, chunks = oi, ox, 1
				}
				for _, p := range []int{1, 8} {
					atParallelism(p, func() {
						w := MustVector[float64](tc.n)
						if err := VxM(w, (*Vector[bool])(nil), nil, s, u, a, &Descriptor{Dir: DirPush}); err != nil {
							t.Fatal(err)
						}
						if lanes := w.dn != nil; lanes != (tc.name == "lanes") {
							t.Fatalf("semiring %d P=%d: result dense-held = %v", k, p, lanes)
						}
						gi, gx := w.ExtractTuples()
						if !sameBits(gi, gx, wi, wx) {
							t.Fatalf("semiring %d P=%d: result differs from the association of %d chunks", k, p, chunks)
						}
						if !pastCap {
							return
						}
						pull := MustVector[float64](tc.n)
						if err := VxM(pull, (*Vector[bool])(nil), nil, s, u, a, &Descriptor{Dir: DirPull}); err != nil {
							t.Fatal(err)
						}
						if pi, px := pull.ExtractTuples(); !sameBits(gi, gx, pi, px) {
							t.Fatalf("semiring %d P=%d: the push past the cap differs from the pull", k, p)
						}
					})
				}
			}
		})
	}
}

// pushMask decodes a program byte into a mask over n outputs, or nil: b%3
// picks none, compressed or dense-held; b/3%2 structural or value; b/6%2
// plain or complemented. Its entries and truth values are drawn from b and
// n. admits is the mask's meaning, stated independently of maskVec.
func pushMask(b, n int) (mv *maskVec, admits func(j int) bool) {
	if b%3 == 0 {
		return nil, func(int) bool { return true }
	}
	d := descValues{MaskValue: b/3%2 == 1, Comp: b/6%2 == 1}
	rng := rand.New(rand.NewSource(int64(b*131 + n)))
	m := MustVector[bool](n)
	stored := make([]bool, n)
	truth := make([]bool, n)
	for j := 0; j < n; j++ {
		if rng.Intn(2) == 0 {
			stored[j], truth[j] = true, rng.Intn(3) != 0
			_ = m.SetElement(j, truth[j])
		}
	}
	if b%3 == 2 && !m.Hold("dense") {
		panic("mask beyond the dense cap")
	}
	return newMaskVec(m, d), func(j int) bool {
		return (stored[j] && (!d.MaskValue || truth[j])) != d.Comp
	}
}

// runPushEmission builds a matrix, a frontier, a chunking and a mask from
// prog and checks that the two ways of putting a dense push accumulator in
// order — sorting its touched list, sweeping its presence lane — emit the
// same (zi, zx), bit for bit, and that both are the reference association;
// that the admitted emission is the unmasked one filtered by the mask, with
// every cell the mask rejected cleared before the scratch goes back to the
// pool; and that vxmPush's result, lanes or arrays, is that emission too.
func runPushEmission(t *testing.T, prog []byte) {
	if len(prog) < 5 {
		return
	}
	n := 8 + int(prog[0])%56
	m := 1 + int(prog[1])%24
	cuts := int(prog[2]) % 8
	// One more program bit: PlusTimes, a tagged constructor, or its twin.
	semirings := pushSemirings()
	s := semirings[int(prog[2])/8%len(semirings)]
	mv, admits := pushMask(int(prog[3]), n)
	prog = prog[4:]
	next := func() int {
		if len(prog) == 0 {
			return 0
		}
		b := prog[0]
		prog = prog[1:]
		return int(b)
	}
	a := MustMatrix[float64](m, n)
	u := MustVector[float64](m)
	for i := 0; i < m; i++ {
		if next()%4 != 0 {
			_ = u.SetElement(i, cancelling[next()%len(cancelling)])
		}
	}
	bounds := []int{0}
	nu := u.Nvals()
	for c := 0; c < cuts; c++ {
		if b := next() % (nu + 1); b > bounds[len(bounds)-1] {
			bounds = append(bounds, b)
		}
	}
	if bounds[len(bounds)-1] != nu || len(bounds) == 1 {
		bounds = append(bounds, nu)
	}
	for len(prog) > 0 {
		_ = a.SetElement(next()%m, next()%n, cancelling[next()%len(cancelling)])
	}
	ui, ux := u.materialized()
	ca := a.materializedCSR()
	filtered := func(zi []int, zx []float64) ([]int, []float64) {
		var oi []int
		var ox []float64
		for k, j := range zi {
			if admits(j) {
				oi, ox = append(oi, j), append(ox, zx[k])
			}
		}
		return oi, ox
	}

	acc := pushDense(ui, ux, ca, s, n, bounds, nil)
	sweepI, sweepX := compactLanes(acc.seen, acc.val, len(acc.touched))
	acc.sortAdmitted(mv, acc.admitDense(mv))
	sortI, sortX := acc.handOver()
	for j, set := range acc.seen {
		if set {
			t.Fatalf("cell %d left set in a scratch going back to the pool", j)
		}
	}
	putScratch(acc)
	wi, wx := pushFoldReference(ui, ux, ca, bounds, s)
	if !sameBits(sweepI, sweepX, wi, wx) {
		t.Fatalf("chunks %v: swept %v %v, the chunk-order association gives %v %v", bounds, sweepI, sweepX, wi, wx)
	}
	if fi, fx := filtered(sweepI, sweepX); !sameBits(sortI, sortX, fi, fx) {
		t.Fatalf("admitted sort-emit %v %v, sweep-emit through the mask %v %v", sortI, sortX, fi, fx)
	}

	// The kernel itself, which chunks by its own rule: at these sizes one
	// chunk.
	zi, zx, zd, admitted := vxmPush(u, ca, s, mv, n, nil)
	if zd != nil {
		zi, zx = compactLanes(zd.b, zd.x, zd.nvals)
		zd.release()
	}
	if !admitted {
		zi, zx = filtered(zi, zx)
	}
	oi, ox := filtered(pushFoldReference(ui, ux, ca, []int{0, len(ui)}, s))
	if !sameBits(zi, zx, oi, ox) {
		t.Fatalf("vxmPush emitted %v %v (admitted %v), the masked association gives %v %v", zi, zx, admitted, oi, ox)
	}
}

// FuzzPushEmission searches for an input on which the push kernel's two
// emission routes, or its chunk fold and the stated association, disagree.
func FuzzPushEmission(f *testing.F) {
	// The first three seeds are unmasked (the fourth byte is 0); the rest
	// repeat the first under a dense-held complemented mask, a compressed
	// value mask and a dense-held complemented value mask.
	f.Add([]byte{12, 3, 2, 0, 1, 0, 1, 1, 1, 2, 1, 2, 0, 3, 0, 1, 4, 1, 2, 1, 4, 1, 2, 3, 5})
	f.Add([]byte{40, 20, 7, 0, 5, 1, 5, 0, 5, 1, 5, 0, 3, 9, 14, 2, 0, 7, 0, 1, 7, 1, 2, 7, 2, 3, 7, 3})
	f.Add([]byte{0, 0, 0, 0, 1})
	for _, mask := range []byte{8, 4, 11} {
		f.Add([]byte{12, 3, 2, mask, 1, 0, 1, 1, 1, 2, 1, 2, 0, 3, 0, 1, 4, 1, 2, 1, 4, 1, 2, 3, 5})
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 2048 {
			return
		}
		runPushEmission(t, prog)
	})
}

// TestPushEmissionRoutesAgree runs seeded random programs through the
// fuzzer's body on every `go test`.
func TestPushEmissionRoutesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1907))
	for trial := 0; trial < 400; trial++ {
		prog := make([]byte, 4+rng.Intn(600))
		rng.Read(prog)
		runPushEmission(t, prog)
	}
}
