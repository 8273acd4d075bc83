package grb

// MxMMethod selects the sparse matrix-multiply kernel, mirroring the three
// algorithm families of SuiteSparse:GraphBLAS (§II-A): Gustavson's method,
// the dot-product method, and the heap (k-way merge) method.
type MxMMethod int

const (
	// MxMAuto picks a kernel from the operands: heap for extremely sparse
	// operands and Gustavson otherwise, or — under a mask — the dot method
	// when its work estimate is below theirs.
	MxMAuto MxMMethod = iota
	// MxMGustavson forces row-wise saxpy accumulation (CSR·CSR).
	MxMGustavson
	// MxMDot forces dot products (CSR·CSC); best with a sparse mask.
	MxMDot
	// MxMHeap forces the k-way merge method; best when rows of A have very
	// few entries.
	MxMHeap
)

// Direction selects the traversal direction of MxV/VxM, the push–pull
// choice of GraphBLAST (§II-E).
type Direction int

const (
	// DirAuto switches between push and pull on a sparsity threshold.
	DirAuto Direction = iota
	// DirPush forces the saxpy/scatter form (SpMSpV): work scales with the
	// input vector's entries.
	DirPush
	// DirPull forces the dot-product form (SpMV): work scales with the
	// output dimension, with early exit on terminal monoids.
	DirPull
)

// Descriptor modifies an operation: input transposition, output
// replacement, and mask interpretation, plus implementation hints. The nil
// descriptor means all defaults.
type Descriptor struct {
	// TranA / TranB select the transpose of the first/second input.
	TranA, TranB bool
	// Replace clears all of the output object before the masked result is
	// written (GrB_REPLACE).
	Replace bool
	// Comp complements the mask (GrB_COMP).
	Comp bool
	// MaskValue interprets a bool-valued mask by its stored values
	// (GrB_STRUCTURE is this library's default; MaskValue opts into value
	// semantics, which only bool containers support).
	MaskValue bool
	// Method hints the MxM kernel.
	Method MxMMethod
	// Dir hints the MxV/VxM traversal direction.
	Dir Direction
}

// descValues is the resolved, nil-safe view of a Descriptor: the nil
// descriptor reads as all defaults.
type descValues = Descriptor

func (d *Descriptor) get() descValues {
	if d == nil {
		return descValues{}
	}
	return *d
}

// Common descriptors, named after their C API counterparts.
var (
	// DescT0 transposes the first input.
	DescT0 = &Descriptor{TranA: true}
	// DescT1 transposes the second input.
	DescT1 = &Descriptor{TranB: true}
	// DescR replaces the output.
	DescR = &Descriptor{Replace: true}
	// DescC complements the mask.
	DescC = &Descriptor{Comp: true}
	// DescRC replaces the output and complements the mask.
	DescRC = &Descriptor{Replace: true, Comp: true}
	// DescRSC replaces the output, complementing the structural mask; the
	// descriptor of the BFS in Fig. 2 of the paper.
	DescRSC = &Descriptor{Replace: true, Comp: true}
)
