package grb

// Binary serialization of GraphBLAS objects (the GxB_Matrix_serialize
// analogue of SuiteSparse): a versioned gob envelope around the
// compressed-sparse arrays, so opaque objects can cross process
// boundaries without going through Ω(e·log e) tuple rebuilds.

import (
	"encoding/gob"
	"io"
)

// serialVersion guards the on-wire layout.
const serialVersion = 1

// matrixWire is the serialized form of a Matrix. The payload is always the
// canonical compressed-sparse arrays whatever the matrix's runtime form — a
// dense-held matrix recompacts and serializes its CSR, and rebuilds the
// dense form lazily on the other side — so every form shares one wire
// layout. Format is read only: images from versions that let an owner pin a
// storage layout carry it (1 standard, 2 hypersparse, 3 dense). The encoder
// leaves it zero, which gob omits, so the bytes are those of an image that
// never had the field.
type matrixWire[T any] struct {
	Version      int
	NRows, NCols int
	Format       int
	Hyper        bool
	P, H, I      []int
	X            []T
}

// vectorWire is the serialized form of a Vector.
type vectorWire[T any] struct {
	Version int
	N       int
	Idx     []int
	X       []T
}

// SerializeMatrix writes a compact binary image of the matrix.
func SerializeMatrix[T any](w io.Writer, a *Matrix[T]) error {
	if a == nil {
		return opError("serialize", ErrUninitialized)
	}
	c := a.materializedCSR()
	img := matrixWire[T]{
		Version: serialVersion,
		NRows:   a.nr, NCols: a.nc,
		Hyper: c.h != nil,
		P:     c.p, H: c.h, I: c.i, X: c.x,
	}
	return gob.NewEncoder(w).Encode(img)
}

// maxNilPointerRestore caps the pointer array synthesized for a wire image
// that omitted P entirely. Every matrix the serializer produces carries a
// non-empty pointer array, so a missing P with large declared dimensions is
// only reachable from hostile bytes — without the cap, a 24-byte stream
// declaring 2^60 rows would make the decoder allocate 8 EiB.
const maxNilPointerRestore = 1 << 24

// DeserializeMatrix reconstructs a matrix written by SerializeMatrix. The
// input is untrusted: dimensions are validated against the array lengths
// before any import, preallocation is capped against the declared sizes,
// and every failure — a gob-level parse error, an unsupported version, a
// shape lie, or out-of-range indices — wraps ErrCorrupt.
func DeserializeMatrix[T any](r io.Reader) (*Matrix[T], error) {
	var img matrixWire[T]
	if err := gob.NewDecoder(r).Decode(&img); err != nil {
		return nil, opErrorf("deserialize", ErrCorrupt, "%v", err)
	}
	if img.Version != serialVersion {
		return nil, opErrorf("deserialize", ErrCorrupt, "unsupported version %d", img.Version)
	}
	if img.NRows < 0 || img.NCols < 0 || img.NRows+1 <= 0 {
		return nil, opErrorf("deserialize", ErrCorrupt, "dims %d×%d", img.NRows, img.NCols)
	}
	if img.Format < 0 || img.Format > 3 {
		return nil, opErrorf("deserialize", ErrCorrupt, "unknown format %d", img.Format)
	}
	// Reject shape lies before the importer sees the arrays: the declared
	// dimensions must agree with the array lengths exactly.
	if len(img.I) != len(img.X) {
		return nil, opErrorf("deserialize", ErrCorrupt, "%d indices but %d values", len(img.I), len(img.X))
	}
	if img.Hyper {
		// A pinned standard or dense layout was always written in standard
		// layout, so a hyper payload claiming one is hostile.
		if img.Format == 1 || img.Format == 3 {
			return nil, opErrorf("deserialize", ErrCorrupt, "hyper payload with standard format %d", img.Format)
		}
		if img.P == nil && img.H == nil {
			img.P = []int{0} // empty hypersparse image
		}
		if img.H == nil {
			img.H = []int{}
		}
		if len(img.P) != len(img.H)+1 {
			return nil, opErrorf("deserialize", ErrCorrupt, "hyper pointer array len %d, hyper list len %d", len(img.P), len(img.H))
		}
		a, err := ImportHyperCSR(img.NRows, img.NCols, img.P, img.H, img.I, img.X, false)
		if err != nil {
			return nil, opErrorf("deserialize", ErrCorrupt, "%v", err)
		}
		a.normalizeCSR()
		return a, nil
	}
	// gob omits empty slices; restore the pointer array shape, but never
	// let declared-but-absent dimensions drive a giant allocation.
	if img.P == nil {
		if len(img.I) != 0 || img.NRows+1 > maxNilPointerRestore {
			return nil, opErrorf("deserialize", ErrCorrupt, "missing pointer array for %d×%d with %d entries", img.NRows, img.NCols, len(img.I))
		}
		img.P = make([]int, img.NRows+1)
	}
	if len(img.P) != img.NRows+1 {
		return nil, opErrorf("deserialize", ErrCorrupt, "pointer array len %d for %d rows", len(img.P), img.NRows)
	}
	if img.I == nil {
		img.I = []int{}
	}
	if img.X == nil {
		img.X = []T{}
	}
	a, err := ImportCSR(img.NRows, img.NCols, img.P, img.I, img.X, false)
	if err != nil {
		return nil, opErrorf("deserialize", ErrCorrupt, "%v", err)
	}
	a.normalizeCSR()
	return a, nil
}

// SerializeVector writes a compact binary image of the vector.
func SerializeVector[T any](w io.Writer, v *Vector[T]) error {
	if v == nil {
		return opError("serialize", ErrUninitialized)
	}
	idx, x := v.materialized()
	img := vectorWire[T]{Version: serialVersion, N: v.n, Idx: idx, X: x}
	return gob.NewEncoder(w).Encode(img)
}

// DeserializeVector reconstructs a vector written by SerializeVector,
// under the same untrusted-input discipline as DeserializeMatrix: shape
// lies are rejected before import and every failure wraps ErrCorrupt.
func DeserializeVector[T any](r io.Reader) (*Vector[T], error) {
	var img vectorWire[T]
	if err := gob.NewDecoder(r).Decode(&img); err != nil {
		return nil, opErrorf("deserialize", ErrCorrupt, "%v", err)
	}
	if img.Version != serialVersion {
		return nil, opErrorf("deserialize", ErrCorrupt, "unsupported version %d", img.Version)
	}
	if img.N < 0 {
		return nil, opErrorf("deserialize", ErrCorrupt, "dim %d", img.N)
	}
	if len(img.Idx) != len(img.X) {
		return nil, opErrorf("deserialize", ErrCorrupt, "%d indices but %d values", len(img.Idx), len(img.X))
	}
	if img.Idx == nil {
		img.Idx = []int{}
	}
	if img.X == nil {
		img.X = []T{}
	}
	v, err := ImportSparse(img.N, img.Idx, img.X, false)
	if err != nil {
		return nil, opErrorf("deserialize", ErrCorrupt, "%v", err)
	}
	return v, nil
}
