// Package store is lagraphd's durable graph store: checksummed snapshot
// frames on disk under a data directory, an atomic-rename write protocol,
// and a manifest naming the live snapshot per graph, so that a crash at
// any instant — including kill -9 halfway through a write — can never
// corrupt the previously good copy.
//
// # Frame format (version 1)
//
//	offset  size  field
//	0       8     magic "LGSNAP01"
//	8       4     frame version, uint32 LE (= 1)
//	12      4     metadata length M, uint32 LE (capped at 1 MiB)
//	16      8     payload length P, uint64 LE
//	24      M     metadata, JSON-encoded Meta
//	24+M    P     payload (opaque bytes; for graphs, the lagraph image)
//	24+M+P  8     CRC-64/ECMA over all preceding bytes, uint64 LE
//
// The checksum covers everything, header included, so any single flipped
// bit anywhere in the file is detected. Decoding is alloc-bounded: buffer
// growth is driven by bytes actually read, never by declared lengths, so
// a hostile 24-byte header announcing an exabyte payload cannot make the
// reader allocate one.
//
// # Write protocol
//
// A snapshot is written to a temporary file in the same directory, fsynced,
// closed, and atomically renamed into place; only then is the manifest —
// itself a checksummed frame, written with the same temp-fsync-rename
// dance — updated to name the new file. Readers trust the manifest, so the
// ordering gives crash safety by construction: a crash before the manifest
// rename leaves the manifest pointing at the old complete snapshot, and a
// crash after it leaves a complete new snapshot (plus, at worst, an
// orphaned old file that the next Save sweeps).
package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/crc64"
	"io"

	"lagraph/internal/grb"
)

// ErrCorrupt reports bytes that failed integrity validation. It aliases
// grb.ErrCorrupt so callers hold a single sentinel for "bad bytes" across
// the frame layer and the matrix decoder beneath it.
var ErrCorrupt = grb.ErrCorrupt

const (
	// frameVersion is the on-disk format version. Any change to the frame
	// layout or to the payload encodings it carries bumps this and adds a
	// decode-rejection test (CONTRIBUTING.md rule 9).
	frameVersion = 1

	frameHeaderLen = 24
	frameMagic     = "LGSNAP01"

	// maxMetaLen caps the JSON metadata block; real Meta documents are
	// under 200 bytes, so a megabyte is generous and still alloc-safe.
	maxMetaLen = 1 << 20
)

// crcTable is the CRC-64/ECMA polynomial table shared by reads and writes.
var crcTable = crc64.MakeTable(crc64.ECMA)

// Meta is the frame's self-describing metadata: what the payload is, its
// shape, and which catalog generation it captured. Fields the payload
// kind does not use stay zero.
type Meta struct {
	// Name is the registered graph name (or an artifact label for
	// non-graph payloads such as the manifest or golden test vectors).
	Name string `json:"name"`
	// Kind discriminates the payload: "directed" | "undirected" for graph
	// images, "manifest" for the store manifest, free-form for others.
	Kind string `json:"kind"`
	// NRows, NCols, NVals describe the serialized object's shape; for
	// graphs, dimensions and stored-edge count of the adjacency.
	NRows int64 `json:"nrows,omitempty"`
	NCols int64 `json:"ncols,omitempty"`
	NVals int64 `json:"nvals,omitempty"`
	// Generation is the catalog mutation counter the snapshot pinned.
	Generation uint64 `json:"generation"`
	// Journal is the WAL high-water mark the snapshot captured: every
	// journaled edge batch with LSN <= Journal is already contained in
	// the payload, so boot recovery replays only the WAL suffix beyond
	// it. Zero for graphs never mutated through the streaming write path
	// (and for snapshots written before the WAL existed — both replay
	// from the beginning, which is correct because replay skips records
	// at or below the floor and an absent floor means nothing to skip).
	Journal uint64 `json:"journal,omitempty"`
}

// corruptf wraps ErrCorrupt with a diagnostic detail.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("store: %s: %w", fmt.Sprintf(format, args...), ErrCorrupt)
}

// WriteFrame writes one framed, checksummed payload to w.
func WriteFrame(w io.Writer, meta Meta, payload []byte) error {
	mj, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("store: write frame: marshal meta: %w", err)
	}
	if len(mj) > maxMetaLen {
		return fmt.Errorf("store: write frame: metadata %d bytes exceeds cap %d", len(mj), maxMetaLen)
	}
	var hdr [frameHeaderLen]byte
	copy(hdr[0:8], frameMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], frameVersion)
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(len(mj)))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(len(payload)))

	crc := crc64.New(crcTable)
	mw := io.MultiWriter(w, crc)
	for _, part := range [][]byte{hdr[:], mj, payload} {
		if _, err := mw.Write(part); err != nil {
			return fmt.Errorf("store: write frame: %w", err)
		}
	}
	var trailer [8]byte
	binary.LittleEndian.PutUint64(trailer[:], crc.Sum64())
	if _, err := w.Write(trailer[:]); err != nil {
		return fmt.Errorf("store: write frame: %w", err)
	}
	return nil
}

// ReadFrame reads and validates one frame from r. Every failure mode —
// truncation, bad magic, unknown version, oversized metadata, checksum
// mismatch, trailing garbage beyond the declared lengths — returns an
// error wrapping ErrCorrupt and never panics; allocation is bounded by
// the bytes r actually yields.
func ReadFrame(r io.Reader) (Meta, []byte, error) {
	crc := crc64.New(crcTable)
	tee := io.TeeReader(r, crc)

	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(tee, hdr[:]); err != nil {
		return Meta{}, nil, corruptf("short header: %v", err)
	}
	if string(hdr[0:8]) != frameMagic {
		return Meta{}, nil, corruptf("bad magic %q", hdr[0:8])
	}
	if v := binary.LittleEndian.Uint32(hdr[8:12]); v != frameVersion {
		return Meta{}, nil, corruptf("unsupported frame version %d", v)
	}
	metaLen := binary.LittleEndian.Uint32(hdr[12:16])
	if metaLen > maxMetaLen {
		return Meta{}, nil, corruptf("metadata length %d exceeds cap %d", metaLen, maxMetaLen)
	}
	payloadLen := binary.LittleEndian.Uint64(hdr[16:24])

	mj, err := readCapped(tee, int64(metaLen))
	if err != nil {
		return Meta{}, nil, corruptf("short metadata: %v", err)
	}
	payload, err := readCapped(tee, int64(payloadLen))
	if err != nil {
		return Meta{}, nil, corruptf("short payload: %v", err)
	}
	want := crc.Sum64() // trailer itself is not checksummed
	var trailer [8]byte
	if _, err := io.ReadFull(r, trailer[:]); err != nil {
		return Meta{}, nil, corruptf("short checksum trailer: %v", err)
	}
	if got := binary.LittleEndian.Uint64(trailer[:]); got != want {
		return Meta{}, nil, corruptf("checksum mismatch: stored %016x, computed %016x", got, want)
	}
	var meta Meta
	if err := json.Unmarshal(mj, &meta); err != nil {
		return Meta{}, nil, corruptf("metadata not valid JSON: %v", err)
	}
	if meta.NRows < 0 || meta.NCols < 0 || meta.NVals < 0 {
		return Meta{}, nil, corruptf("negative shape in metadata: %d×%d/%d", meta.NRows, meta.NCols, meta.NVals)
	}
	return meta, payload, nil
}

// readCapped reads exactly n bytes, growing the buffer only as data
// arrives (1 MiB steps), so a lying length field cannot force a giant
// upfront allocation.
func readCapped(r io.Reader, n int64) ([]byte, error) {
	if n < 0 {
		return nil, fmt.Errorf("negative length %d", n)
	}
	const step = 1 << 20
	var buf bytes.Buffer
	if n < step {
		buf.Grow(int(n))
	} else {
		buf.Grow(step)
	}
	if _, err := io.CopyN(&buf, r, n); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ensure hash.Hash64 stays the interface crc64 gives us; a compile-time
// guard against accidentally switching to a 32-bit digest.
var _ hash.Hash64 = crc64.New(crcTable)
