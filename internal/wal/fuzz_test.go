package wal

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"
)

// FuzzWALDecode drives the record decoder with hostile bytes. The
// contract mirrors the snapshot-frame fuzzers: arbitrary input must
// either decode to a CRC-valid record or be rejected with an error
// wrapping ErrCorrupt (clean EOF at a record boundary excepted) — never
// a panic, never an unbounded allocation, and a round-tripped record
// must decode back to itself.
func FuzzWALDecode(f *testing.F) {
	var zero digest
	f.Add(encodeRecord(1, zero, []byte("edge batch payload")))
	f.Add(encodeRecord(7, sha256.Sum256([]byte("prev")), bytes.Repeat([]byte{0xAB}, 300)))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // absurd length field
	f.Add(make([]byte, recHeaderLen))     // zero length field
	truncated := encodeRecord(3, zero, []byte("will be cut"))
	f.Add(truncated[:len(truncated)-3])

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, encoded, err := readRecord(bytes.NewReader(data))
		if err != nil {
			if errors.Is(err, io.EOF) && len(data) == 0 {
				return // clean boundary
			}
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, io.EOF) {
				t.Fatalf("decode error is neither EOF nor ErrCorrupt: %v", err)
			}
			return
		}
		// Accepted: the bytes must re-encode to exactly what was read
		// (CRC-valid framing is self-describing).
		if len(encoded) > len(data) {
			t.Fatalf("decoder claims %d bytes from %d input", len(encoded), len(data))
		}
		if !bytes.Equal(encoded, data[:len(encoded)]) {
			t.Fatal("decoded record bytes differ from input prefix")
		}
		var prev digest
		copy(prev[:], encoded[12:44])
		re := encodeRecord(rec.LSN, prev, rec.Payload)
		if !bytes.Equal(re, encoded) {
			t.Fatal("re-encoding an accepted record does not round-trip")
		}
	})
}

// FuzzWALSegmentHeader does the same for the segment header decoder.
func FuzzWALSegmentHeader(f *testing.F) {
	var zero digest
	f.Add(encodeSegmentHeader(1, zero))
	f.Add(encodeSegmentHeader(1<<40, sha256.Sum256([]byte("carry"))))
	f.Add([]byte("LGWAL001 but far too short"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		first, carry, err := readSegmentHeader(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("header decode error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		re := encodeSegmentHeader(first, carry)
		if !bytes.Equal(re, data[:segHeaderLen]) {
			t.Fatal("accepted header does not round-trip")
		}
	})
}

// FuzzStreamReader drives the decoder a follower runs on a peer's
// response body — and, through StreamReader.read, the record loop every
// reader of the log shares — with hostile bytes. Every input must end in
// a clean io.EOF at a record boundary or an error wrapping ErrCorrupt:
// never a panic, and never an allocation sized from a length field the
// bytes do not back. Every record accepted on the way must be dense from
// First() and chained from Carry().
func FuzzStreamReader(f *testing.F) {
	l, err := Open(f.TempDir(), Options{NoSync: true, SegmentBytes: 256})
	if err != nil {
		f.Fatal(err)
	}
	defer l.Close()
	for i := 1; i <= 12; i++ {
		if _, err := l.Append(bytes.Repeat([]byte{byte(i)}, 3*i)); err != nil {
			f.Fatal(err)
		}
	}
	serve := func(from uint64, max int) []byte {
		var buf bytes.Buffer
		if _, err := l.StreamTo(&buf, from, max); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	full := serve(1, 0)
	f.Add(full)
	f.Add(serve(4, 5))           // a window across segment boundaries
	f.Add(serve(l.NextLSN(), 0)) // caught up: header only
	f.Add(full[:len(full)-5])    // truncated mid-record
	flipped := bytes.Clone(full)
	flipped[segHeaderLen+recHeaderLen+1] ^= 0x10
	f.Add(flipped)
	// A length field claiming the cap, backed by a few bytes.
	claim := bytes.Clone(full[:segHeaderLen+recHeaderLen+8])
	binary.LittleEndian.PutUint32(claim[segHeaderLen:], MaxRecordBytes)
	f.Add(claim)

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := checkWindow(data)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		// Accepted records cost their own bytes; a rejected one at most
		// readChunk before its claimed length is backed.
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(4*len(data)+4*readChunk); alloc > limit {
			t.Fatalf("decoding %d bytes allocated %d, over %d", len(data), alloc, limit)
		}
	})
}

// checkWindow decodes data as a stream window and reports any breach of
// FuzzStreamReader's contract.
func checkWindow(data []byte) error {
	sr, err := NewStreamReader(bytes.NewReader(data))
	if err != nil {
		if !errors.Is(err, ErrCorrupt) {
			return fmt.Errorf("header error does not wrap ErrCorrupt: %v", err)
		}
		return nil
	}
	want, chain, off := sr.First(), sr.Carry(), segHeaderLen
	for {
		rec, err := sr.Next()
		switch {
		case errors.Is(err, io.EOF) && off != len(data):
			return fmt.Errorf("clean EOF at offset %d of %d", off, len(data))
		case errors.Is(err, io.EOF) || errors.Is(err, ErrCorrupt):
			return nil
		case err != nil:
			return fmt.Errorf("record error is neither EOF nor ErrCorrupt: %v", err)
		case rec.LSN != want:
			return fmt.Errorf("accepted LSN %d, want %d", rec.LSN, want)
		}
		encoded := data[off : off+recHeaderLen+len(rec.Payload)+recTrailerLen]
		if prevOf(encoded) != chain {
			return fmt.Errorf("accepted record %d does not link to its predecessor", rec.LSN)
		}
		chain = sha256.Sum256(encoded)
		if sr.Chain() != chain || sr.NextLSN() != want+1 {
			return fmt.Errorf("reader position after record %d disagrees with the bytes", rec.LSN)
		}
		want++
		off += len(encoded)
	}
}
