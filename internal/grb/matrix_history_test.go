package grb_test

// A Matrix's mutation history against the mimic: the non-blocking model of
// §II-A (pending tuples, zombies, lazy assembly) checked the way the
// paper checks single operations. One byte-coded program drives one matrix
// through bursts of SetElement, SetElements under each duplicate policy,
// MergeElement, RemoveElement and Wait; after each burst — a read, so every
// buffered update assembles — the matrix must equal the mimic in value and
// pattern and, unless its layout was held, serialize like a matrix built
// from its tuples.
//
// The matrix is held in one of four forms, re-held before every burst:
//
//   - standard: left to the content rule, which keeps toy sizes standard;
//   - held hypersparse: converted to the hypersparse layout (HoldHyper);
//   - huge: 2¹⁵ rows or more, hypersparse by content, with mimic row i
//     stored at row i·stride;
//   - dense-held: the dense form authoritative (HoldDenseMatrix), so
//     buffered updates and removals land on it.

import (
	"math/rand"
	"testing"

	"lagraph/internal/grb"
	"lagraph/internal/grb/ref"
)

// runMatrixHistory interprets prog and fails on the first disagreement.
func runMatrixHistory(t *testing.T, prog []byte) {
	t.Helper()
	r := &progReader{b: prog}
	form := r.next() % 4
	nr, nc := 1+r.next()%12, 1+r.next()%12
	stride := 1
	if form == 2 {
		stride = (1<<15 + nr - 1) / nr
	}
	a := grb.MustMatrix[int64](nr*stride, nc)
	want := ref.NewMat[int64](nr, nc)
	plus := grb.Plus[int64]()
	dups := []grb.BinaryOp[int64, int64, int64]{nil, plus, grb.Minus[int64](), grb.First[int64, int64]()}
	value := func() int64 { return int64(r.next()%7) - 3 }

	for step := 0; !r.done() && step < 48; step++ {
		switch form {
		case 1:
			a.Hold("hyper")
		case 3:
			a.Hold("dense")
		}
		for burst := 1 + r.next()%4; burst > 0; burst-- {
			i, j := r.next()%nr, r.next()%nc
			switch r.next() % 6 {
			case 0:
				x := value()
				must(t, a.SetElement(i*stride, j, x))
				want.Val[i][j], want.Set[i][j] = x, true
			case 1, 2: // a batch, duplicates and all
				dup := dups[r.next()%len(dups)]
				cnt := r.next() % 9
				is, js, xs := make([]int, cnt), make([]int, cnt), make([]int64, cnt)
				for k := range is {
					is[k], js[k], xs[k] = r.next()%nr, r.next()%nc, value()
				}
				rows := make([]int, cnt)
				for k, bi := range is {
					rows[k] = bi * stride
				}
				must(t, a.SetElements(rows, js, xs, dup))
				applyBatch(want, is, js, xs, dup)
			case 3:
				x := value()
				must(t, a.MergeElement(i*stride, j, x, plus))
				if want.Set[i][j] {
					want.Val[i][j] += x
				} else {
					want.Val[i][j], want.Set[i][j] = x, true
				}
			case 4:
				must(t, a.RemoveElement(i*stride, j))
				want.Set[i][j] = false
			default:
				a.Wait()
			}
		}
		// a's row i·stride is the mimic's row i, and its other rows are empty.
		strided := entriesOf[int64](want)
		for k := range strided.is {
			strided.is[k] *= stride
		}
		strided.nr = a.Nrows()
		mustMatch[int64](t, "", a, strided, byValue)
		if form != 1 { // a burst that rebuilds nothing leaves the held layout, which serializes as held
			mustSerializeLikeTwin[int64](t, "", a)
		}
	}
}

// applyBatch is SetElements on the mimic: with no dup the tuples are
// written in order, the last one at a position winning; with a dup the
// batch's tuples at one position fold left to right and the fold meets a
// stored entry as dup(stored, fold).
func applyBatch(m *ref.Mat[int64], is, js []int, xs []int64, dup grb.BinaryOp[int64, int64, int64]) {
	if dup == nil {
		for k := range is {
			m.Val[is[k]][js[k]], m.Set[is[k]][js[k]] = xs[k], true
		}
		return
	}
	type pos struct{ i, j int }
	fold := map[pos]int64{}
	var order []pos
	for k := range is {
		p := pos{is[k], js[k]}
		if f, ok := fold[p]; ok {
			fold[p] = dup(f, xs[k])
		} else {
			fold[p] = xs[k]
			order = append(order, p)
		}
	}
	for _, p := range order {
		if m.Set[p.i][p.j] {
			m.Val[p.i][p.j] = dup(m.Val[p.i][p.j], fold[p])
		} else {
			m.Val[p.i][p.j], m.Set[p.i][p.j] = fold[p], true
		}
	}
}

// FuzzMatrixHistory searches for a mutation history on which a standard,
// hypersparse or dense-held matrix disagrees with the mimic.
func FuzzMatrixHistory(f *testing.F) {
	f.Add([]byte{0, 5, 5, 2, 1, 1, 1, 3, 2, 1, 1, 4, 0, 3, 4, 2, 0, 0, 1, 6, 2, 2, 3, 5})
	f.Add([]byte{1, 7, 3, 3, 0, 0, 0, 2, 5, 1, 2, 4, 1, 1, 3, 0, 1, 5, 2, 2, 4, 1, 6, 2, 3, 0, 5})
	f.Add([]byte{2, 9, 4, 4, 3, 1, 1, 8, 1, 1, 2, 3, 1, 2, 4, 3, 2, 1, 3, 0, 2, 2, 4, 6, 1, 1, 5})
	f.Add([]byte{3, 3, 3, 2, 2, 2, 4, 1, 1, 0, 2, 1, 2, 2, 5, 2, 1, 4, 1, 0, 2, 3, 0, 1, 1, 4, 5})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 512 {
			return
		}
		runMatrixHistory(t, prog)
	})
}

// TestMatrixMutationHistoryVsMimic runs seeded random histories through the
// same interpreter on every `go test`.
func TestMatrixMutationHistoryVsMimic(t *testing.T) {
	rng := rand.New(rand.NewSource(3405))
	for trial := 0; trial < 400; trial++ {
		prog := make([]byte, 40+rng.Intn(200))
		rng.Read(prog)
		runMatrixHistory(t, prog)
	}
}
