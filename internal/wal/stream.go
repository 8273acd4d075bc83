package wal

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// This file is the replication transport of the journal: a primary serves
// a window of its log as a byte stream (StreamTo) and a follower decodes
// and re-verifies it (StreamReader). The wire format is deliberately the
// on-disk format — a 56-byte segment header (synthetic: its firstLSN is
// the window start and its carry-in digest is the chain link of the
// record just before it) followed by raw framed records. The log reads
// its own segment files through StreamReader too, so a follower runs
// exactly the CRC + hash-chain + LSN-density verification that boot
// recovery runs — the same code — and a window is spliced onto the follower's
// position by comparing the header's carry-in against the digest of the
// last record it already holds — continuity across polls, across segment
// rotations, and across follower restarts all reduce to one digest
// comparison.

// ErrTruncated reports a stream request for records the log no longer
// retains (TruncateBefore removed them). The follower's recovery is a
// fresh baseline snapshot, which re-pins its floor past the gap.
var ErrTruncated = errors.New("wal: requested records already truncated")

// StreamInfo describes one served stream window.
type StreamInfo struct {
	// From is the window's first LSN (the synthetic header's firstLSN).
	From uint64 `json:"from"`
	// Records is how many records were written after the header.
	Records int `json:"records"`
	// NextLSN is the resume position: the LSN the follower should request
	// next. Equal to the log head when the window drained the log.
	NextLSN uint64 `json:"next_lsn"`
}

// StreamTo writes a verification-carrying window of the log to w: one
// synthetic segment header (firstLSN = from, carry-in = chain digest of
// record from-1) followed by up to maxRecords raw framed records
// (maxRecords <= 0 streams to the head). The window may span segment
// boundaries — the stream hands off across a rotation without the reader
// noticing, because the synthetic header already re-anchored the chain.
//
// The carry-in digest is computed by scanning only the segment containing
// `from` (from that segment's own trusted header forward), never the whole
// chain: serving a window from the newest segment stays O(segment), no
// matter how long the log is. A from at the current head is answered with
// an empty window (header only) whose carry-in is the live chain head.
//
// Appends racing the stream are safe: the window bounds (head, segment
// set) are pinned under the log mutex, every record below the pinned head
// was fully written before the pin, and file reads run without the lock.
// A TruncateBefore racing the stream can remove a pinned segment file;
// that surfaces as ErrTruncated and the follower re-syncs from a
// snapshot.
func (l *Log) StreamTo(w io.Writer, from uint64, maxRecords int) (StreamInfo, error) {
	if from == 0 {
		return StreamInfo{}, fmt.Errorf("wal: stream: from must be >= 1")
	}
	l.mu.Lock()
	head, chainHead := l.nextLSN, l.chain
	segs := append([]segment(nil), l.segments...)
	l.mu.Unlock()

	info := StreamInfo{From: from, NextLSN: from}
	switch {
	case from > head:
		return StreamInfo{}, fmt.Errorf("wal: stream: from %d beyond head %d", from, head)
	case from == head:
		// Caught up: header only, carry-in = live chain head, so the
		// follower can still verify it agrees with the primary's chain.
		if _, err := w.Write(encodeSegmentHeader(from, chainHead)); err != nil {
			return StreamInfo{}, fmt.Errorf("wal: stream: %w", err)
		}
		return info, nil
	case len(segs) == 0 || from < segs[0].firstLSN:
		// Anything below the oldest retained record is gone for good.
		return StreamInfo{}, fmt.Errorf("wal: stream from %d: %w", from, ErrTruncated)
	}
	stop := head // exclusive
	if maxRecords > 0 && from+uint64(maxRecords) < stop {
		stop = from + uint64(maxRecords)
	}
	err := walk(segs, from, stop, func(rec Record, encoded []byte) error {
		if info.Records == 0 {
			// A verified record's prev-digest is the chain digest of
			// record from-1: exactly the carry-in the window anchors on.
			if _, err := w.Write(encodeSegmentHeader(from, prevOf(encoded))); err != nil {
				return fmt.Errorf("wal: stream: %w", err)
			}
		}
		if _, err := w.Write(encoded); err != nil {
			return fmt.Errorf("wal: stream: %w", err)
		}
		info.Records++
		info.NextLSN = rec.LSN + 1
		return nil
	})
	return info, err
}

// walk re-reads segs, a pinned segment list, in order through one
// StreamReader and hands fn every record in [from, stop) with its encoded
// bytes. The first segment it opens is the reader's trusted origin, as
// the oldest retained one is for recovery; each later segment's header
// must continue it. A segment is read only through the last record the
// list says it holds, so bytes an append writes past a pinned head are
// never read.
func walk(segs []segment, from, stop uint64, fn func(Record, []byte) error) error {
	sr := &StreamReader{}
	for _, seg := range segs {
		if seg.lastLSN < from {
			continue
		}
		if seg.firstLSN >= stop {
			break
		}
		if err := sr.walkSegment(seg, from, min(seg.lastLSN, stop-1), fn); err != nil {
			return err
		}
	}
	return nil
}

// walkSegment attaches sr to one segment file and reads it through record
// last, handing fn the records numbered from onward.
func (sr *StreamReader) walkSegment(seg segment, from, last uint64, fn func(Record, []byte) error) error {
	base := filepath.Base(seg.path)
	f, err := os.Open(seg.path)
	if errors.Is(err, os.ErrNotExist) {
		// A concurrent TruncateBefore removed the file after the pin: the
		// window is no longer serveable.
		return fmt.Errorf("wal: %s: %w", base, ErrTruncated)
	}
	if err != nil {
		return fmt.Errorf("wal: %s: %w", base, err)
	}
	defer f.Close()
	if err := sr.attach(f); err != nil {
		return fmt.Errorf("wal: %s: %w", base, err)
	}
	if sr.next != seg.firstLSN {
		return corruptf("%s: segment header changed since recovery", base)
	}
	err = sr.each(last, func(rec Record, encoded []byte) error {
		if rec.LSN < from {
			return nil
		}
		return fn(rec, encoded)
	})
	if errors.Is(err, io.EOF) {
		return corruptf("%s: segment ends before record %d", base, sr.next)
	}
	return err
}

// errBreak is wrapped by every CRC-valid record or segment header that
// does not continue the LSN sequence or the hash chain. A torn write
// cannot produce one, so recovery treats it as tampering even at the tail.
var errBreak = fmt.Errorf("journal sequence or hash chain broken: %w", ErrCorrupt)

// StreamReader decodes a StreamTo window, re-running the CRC, hash-chain
// and LSN-density verification of boot recovery on every record. The
// follower splices windows together by checking Carry() against the
// Chain() it recorded after the previous window. It is the log's only
// record reader: recovery, Replay and StreamTo read segment files through
// it too.
type StreamReader struct {
	r     io.Reader // nil until the first header is attached
	first uint64
	next  uint64
	carry digest
	chain digest
}

// NewStreamReader reads and validates the window header. The returned
// reader's Carry is the chain digest of record First()-1 as claimed by
// the sender; a follower that already holds records must verify it
// matches its own chain head before applying anything.
func NewStreamReader(r io.Reader) (*StreamReader, error) {
	sr := &StreamReader{}
	if err := sr.attach(r); err != nil {
		return nil, err
	}
	return sr, nil
}

// attach reads a segment header from r and continues reading records
// from r. The first header attached is the reader's trusted origin (a
// window's claimed carry-in, a log's oldest retained segment); every
// later one must start exactly where the records read so far end.
func (sr *StreamReader) attach(r io.Reader) error {
	first, carry, err := readSegmentHeader(r)
	if err != nil {
		return err
	}
	if sr.r == nil {
		sr.first, sr.next, sr.carry, sr.chain = first, first, carry, carry
	} else if first != sr.next || carry != sr.chain {
		return fmt.Errorf("wal: segment starts at LSN %d, expected %d and its chain: %w", first, sr.next, errBreak)
	}
	sr.r = r
	return nil
}

// First returns the window's first LSN.
func (sr *StreamReader) First() uint64 { return sr.first }

// Carry returns the sender-claimed chain digest of record First()-1.
func (sr *StreamReader) Carry() [sha256.Size]byte { return sr.carry }

// Chain returns the digest of the last record Next returned (Carry before
// any record was read). Recording it after draining a window is how a
// follower verifies the next window splices on without a gap.
func (sr *StreamReader) Chain() [sha256.Size]byte { return sr.chain }

// NextLSN returns the LSN the next record must carry.
func (sr *StreamReader) NextLSN() uint64 { return sr.next }

// Next returns the window's next record, or io.EOF at the end of the
// window. Any CRC, chain or density failure wraps ErrCorrupt.
func (sr *StreamReader) Next() (Record, error) {
	rec, _, err := sr.read()
	return rec, err
}

// read returns the next record with its encoded bytes. It is the one
// place a record is CRC-checked (readRecord) and checked to continue the
// LSN sequence and the hash chain; a clean end at a record boundary is a
// bare io.EOF.
func (sr *StreamReader) read() (Record, []byte, error) {
	rec, encoded, err := readRecord(sr.r)
	if err != nil {
		return Record{}, nil, err
	}
	if rec.LSN != sr.next {
		return Record{}, nil, fmt.Errorf("wal: record LSN %d, expected %d: %w", rec.LSN, sr.next, errBreak)
	}
	if prevOf(encoded) != sr.chain {
		return Record{}, nil, fmt.Errorf("wal: record %d does not link to its predecessor (spliced or reordered): %w", rec.LSN, errBreak)
	}
	sr.chain = sha256.Sum256(encoded)
	sr.next++
	return rec, encoded, nil
}

// each reads records through the one numbered last, handing fn each with
// its encoded bytes. It stops at fn's first error or the reader's, which
// is a bare io.EOF when the bytes end cleanly before last.
func (sr *StreamReader) each(last uint64, fn func(Record, []byte) error) error {
	for sr.next <= last {
		rec, encoded, err := sr.read()
		if err != nil {
			return err
		}
		if err := fn(rec, encoded); err != nil {
			return err
		}
	}
	return nil
}
