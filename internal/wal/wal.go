// Package wal is lagraphd's write-ahead log: an append-only, segmented,
// CRC-64-framed, hash-chained journal of edge-mutation batches, the
// durability half of the streaming write path (the other half being the
// snapshot store in internal/store). A batch accepted by the service is
// appended and fsynced here before the mutation is acknowledged, so boot
// recovery is "last snapshot + WAL replay" and the durability cost of a
// hot edge insert is one record append — independent of graph size —
// instead of a whole-graph re-serialization.
//
// # Record format (version 1)
//
//	offset  size  field
//	0       4     payload length P, uint32 LE (capped at 16 MiB)
//	4       8     LSN, uint64 LE (dense: exactly prev+1)
//	12      32    previous record's SHA-256 digest (the hash chain)
//	44      P     payload (opaque bytes; for lagraphd, an edge batch)
//	44+P    8     CRC-64/ECMA over all preceding bytes, uint64 LE
//
// A record's digest is the SHA-256 of its full encoded bytes, trailer
// included. Each record carries its predecessor's digest, so the log is a
// hash chain: flipping a bit breaks that record's CRC, deleting or
// reordering a record breaks the next record's chain link, and splicing a
// record from another log (or another position) breaks both. Truncation
// of the *tail* is the one edit a chain cannot self-detect, which is why
// the snapshot store records the WAL position it captured — a snapshot's
// journal offset pins how much log must exist.
//
// # Segments
//
// Records land in segment files wal-<firstLSN 16-hex>.seg. A segment
// starts with a 56-byte header (magic "LGWAL001", first LSN, the chain
// digest carried in from the previous segment, CRC-64 of the header), so
// every segment is independently verifiable and the chain spans segment
// boundaries. When the active segment exceeds SegmentBytes it is sealed
// and the next append opens a fresh one. TruncateBefore removes sealed
// segments made dead by snapshots, which is what decouples WAL disk usage
// from history length.
//
// # Crash recovery
//
// Open scans every segment in LSN order, re-verifying CRCs, LSN density
// and the hash chain. Damage at the tail of the *last* segment — a torn
// final record from kill -9 mid-append, or a partially written segment
// header — is tolerated: the log is truncated back to the last valid
// record and the loss is reported in RecoveryInfo (the commit contract
// only covers acknowledged appends, and an acknowledged append was
// fsynced whole). Damage anywhere else means acknowledged records are
// unreachable, so Open fails with ErrCorrupt rather than silently
// serving a shortened history.
package wal

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"lagraph/internal/grb"
)

// ErrCorrupt reports bytes that failed integrity validation, aliasing
// grb.ErrCorrupt so the service layer holds one sentinel for "bad bytes"
// across snapshots, matrices and the journal.
var ErrCorrupt = grb.ErrCorrupt

const (
	segMagic     = "LGWAL001"
	segHeaderLen = 8 + 8 + 32 + 8 // magic + firstLSN + chain carry-in + CRC-64

	recHeaderLen  = 4 + 8 + 32 // payload length + LSN + prev digest
	recTrailerLen = 8          // CRC-64

	// MaxRecordBytes caps one record's payload; decoding never allocates
	// beyond it no matter what a damaged length field claims.
	MaxRecordBytes = 16 << 20

	// readChunk caps the buffer a record read sizes from its length field
	// before the bytes behind it have arrived.
	readChunk = 64 << 10

	// DefaultSegmentBytes is the rotation threshold when Options leaves
	// SegmentBytes zero.
	DefaultSegmentBytes = 64 << 20
)

// crcTable is the CRC-64/ECMA table of records and segment headers. The
// snapshot store uses the same polynomial but builds its own table.
var crcTable = crc64.MakeTable(crc64.ECMA)

// digest is one SHA-256 chain link.
type digest = [sha256.Size]byte

// Options tunes a Log.
type Options struct {
	// SegmentBytes is the rotation threshold; 0 selects DefaultSegmentBytes.
	SegmentBytes int64
	// NoSync skips the per-append fsync. Only for tests and benchmarks
	// that measure the in-memory cost: without the sync there is no
	// durability point, so a crash can lose acknowledged appends.
	NoSync bool
}

// Record is one replayed journal entry.
type Record struct {
	LSN     uint64
	Payload []byte
}

// RecoveryInfo reports what Open found.
type RecoveryInfo struct {
	// Records is the number of valid records scanned.
	Records int
	// Segments is the number of segment files retained.
	Segments int
	// TornBytes counts bytes discarded from the tail of the last segment
	// (a torn final record or partial segment header from a crash
	// mid-append). Zero on a clean log.
	TornBytes int64
	// TornFile names the segment that was truncated, when TornBytes > 0.
	TornFile string
}

// Stats aggregates log activity counters, rendered by /metrics.
type Stats struct {
	Segments     int    `json:"segments"`      // segment files on disk
	FirstLSN     uint64 `json:"first_lsn"`     // oldest retained LSN (0 when empty)
	NextLSN      uint64 `json:"next_lsn"`      // LSN the next append will get
	Appends      int64  `json:"appends"`       // records appended this process life
	AppendBytes  int64  `json:"append_bytes"`  // record bytes appended
	Fsyncs       int64  `json:"fsyncs"`        // durability syncs issued
	Truncated    int64  `json:"truncated"`     // segments removed by TruncateBefore
	Replayed     int64  `json:"replayed"`      // records validated at Open
	TornBytes    int64  `json:"torn_bytes"`    // bytes dropped from a torn tail at Open
	SyncDisabled bool   `json:"sync_disabled"` // NoSync was set (tests only)
}

// segment describes one on-disk segment file.
type segment struct {
	path     string
	firstLSN uint64
	lastLSN  uint64 // last valid record; firstLSN-1 when the segment is empty
	size     int64
}

// Log is an append-only hash-chained journal under one directory. All
// methods are safe for concurrent use; appends are serialized.
type Log struct {
	dir string
	opt Options

	mu       sync.Mutex
	segments []segment //grblint:guardedby mu
	active   *os.File  //grblint:guardedby mu // nil until the first append (or after a seal)
	actSize  int64     //grblint:guardedby mu
	nextLSN  uint64    //grblint:guardedby mu
	chain    digest    //grblint:guardedby mu // digest of the last appended record
	closed   bool      //grblint:guardedby mu
	// broken is set when a failed append could not be rolled back to the
	// last acknowledged record boundary: the active segment holds partial
	// bytes that cannot be removed, and writing past them would bury
	// acknowledged records behind garbage the next boot's torn-tail scan
	// would discard. Every further append refuses instead, so the damage
	// stays a tail and recovery truncates it without losing anything
	// acknowledged.
	broken error //grblint:guardedby mu

	rec RecoveryInfo // immutable after Open

	appends     atomic.Int64
	appendBytes atomic.Int64
	fsyncs      atomic.Int64
	truncated   atomic.Int64
}

// Open creates (if needed) the log directory and recovers the journal:
// every segment is scanned and verified (CRC per record, dense LSNs, hash
// chain across records and segments). A torn tail on the final segment is
// truncated and reported via Recovery; corruption anywhere else fails the
// open with an error wrapping ErrCorrupt.
func Open(dir string, opt Options) (*Log, error) {
	if opt.SegmentBytes <= 0 {
		opt.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", dir, err)
	}
	l := &Log{dir: dir, opt: opt, nextLSN: 1}
	if err := l.recover(); err != nil {
		return nil, err
	}
	return l, nil
}

// Recovery reports what Open found (replayed record count, torn-tail
// bytes dropped). Immutable after Open.
func (l *Log) Recovery() RecoveryInfo { return l.rec }

// recover scans the segment files in LSN order through one StreamReader,
// verifying each record and establishing the append position (nextLSN +
// chain digest). It runs in Open before the Log is shared, but takes mu
// anyway — uncontended, and it keeps the guarded-field invariants
// checkable.
func (l *Log) recover() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	paths, err := filepath.Glob(filepath.Join(l.dir, "wal-*.seg"))
	if err != nil {
		return fmt.Errorf("wal: recover %s: %w", l.dir, err)
	}
	sort.Strings(paths)          // fixed-width hex names sort in LSN order
	sr := &StreamReader{next: 1} // an empty log appends from LSN 1
	for idx, path := range paths {
		if err := l.recoverSegment(sr, path, idx == len(paths)-1); err != nil {
			return err
		}
	}
	l.nextLSN, l.chain = sr.next, sr.chain
	l.rec.Segments = len(l.segments)
	return nil
}

// recoverSegment verifies one segment through sr and retains it. A last
// segment whose header never finished writing is removed, a torn final
// record on it is truncated away, and any other damage is an ErrCorrupt
// error.
//
//grblint:locked mu
func (l *Log) recoverSegment(sr *StreamReader, path string, last bool) error {
	base := filepath.Base(path)
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("wal: recover %s: %w", base, err)
	}
	defer f.Close()

	// The oldest retained segment is the reader's origin: snapshots may
	// have truncated its predecessors, so its first LSN and carry-in
	// digest are the trusted start of sequence and chain. Every later
	// header must continue them.
	if err := sr.attach(f); err != nil {
		// A crash between creating the segment file and syncing its header
		// leaves a SHORT file (the header is written and synced before any
		// record can land): that torn create is tolerated on the last
		// segment. A full-size header that fails validation cannot be a
		// torn write — it is damage.
		if fi, statErr := f.Stat(); last && statErr == nil && fi.Size() < segHeaderLen {
			return l.dropTorn(path, 0)
		}
		return fmt.Errorf("wal: %s: %w", base, err)
	}
	seg := segment{path: path, firstLSN: sr.next, lastLSN: sr.next - 1, size: segHeaderLen}
	err = sr.each(math.MaxUint64, func(rec Record, encoded []byte) error {
		seg.lastLSN = rec.LSN
		seg.size += int64(len(encoded))
		l.rec.Records++
		return nil
	})
	// The walk ends only on an error: a clean io.EOF, or damage. A torn
	// write cannot produce a CRC-valid record, so one that breaks the
	// sequence or the chain is tampering even at the tail; any other
	// damage on the last segment is a torn final append.
	switch {
	case errors.Is(err, io.EOF):
	case last && !errors.Is(err, errBreak):
		if err := l.dropTorn(path, seg.size); err != nil {
			return err
		}
	default:
		return fmt.Errorf("wal: %s: %w", base, err)
	}
	l.segments = append(l.segments, seg)
	return nil
}

// dropTorn cuts path back to keep bytes (removing the file when keep is
// 0, a torn header) so the append position lands exactly after the last
// valid record, and reports the loss in RecoveryInfo.
func (l *Log) dropTorn(path string, keep int64) error {
	base := filepath.Base(path)
	fi, err := os.Stat(path)
	if err != nil {
		return fmt.Errorf("wal: %s: %w", base, err)
	}
	l.rec.TornBytes = fi.Size() - keep
	l.rec.TornFile = base
	if keep == 0 {
		err = os.Remove(path)
	} else {
		err = os.Truncate(path, keep)
	}
	if err != nil {
		return fmt.Errorf("wal: drop torn tail of %s: %w", base, err)
	}
	return nil
}

// Append journals one payload: the record is written to the active
// segment and fsynced before Append returns (unless NoSync), so a
// returned LSN is a durability promise. Appends are serialized; the
// returned LSNs are dense and strictly increasing.
func (l *Log) Append(payload []byte) (uint64, error) {
	if len(payload) == 0 {
		return 0, fmt.Errorf("wal: append: empty payload")
	}
	if len(payload) > MaxRecordBytes {
		return 0, fmt.Errorf("wal: append: payload %d bytes exceeds cap %d", len(payload), MaxRecordBytes)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, fmt.Errorf("wal: append: log closed")
	}
	if l.broken != nil {
		return 0, fmt.Errorf("wal: append: log poisoned: %w", l.broken)
	}
	if err := l.ensureActiveLocked(); err != nil {
		return 0, err
	}
	lsn := l.nextLSN
	encoded := encodeRecord(lsn, l.chain, payload)
	if _, err := l.active.Write(encoded); err != nil {
		l.rollbackLocked(err)
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	if !l.opt.NoSync {
		if err := l.active.Sync(); err != nil {
			l.rollbackLocked(err)
			return 0, fmt.Errorf("wal: append sync: %w", err)
		}
		l.fsyncs.Add(1)
	}
	l.chain = sha256.Sum256(encoded)
	l.nextLSN++
	l.actSize += int64(len(encoded))
	cur := &l.segments[len(l.segments)-1]
	cur.lastLSN = lsn
	cur.size = l.actSize
	l.appends.Add(1)
	l.appendBytes.Add(int64(len(encoded)))
	if l.actSize >= l.opt.SegmentBytes {
		l.sealActiveLocked()
	}
	return lsn, nil
}

// rollbackLocked rolls the active segment back to the last acknowledged
// record boundary after a failed write or sync. Segments are opened with
// O_APPEND, so a successful truncate is sufficient: the next write lands
// at the new EOF, never at a stale file offset a partial write left
// behind (which would leave a zero-filled gap that the next boot's
// recovery treats as a torn tail, truncating away acknowledged records
// after it). If the truncate itself fails the partial bytes cannot be
// removed, so the log is poisoned instead of risking writes past them:
// every further append refuses, the damage stays a tail, and the next
// boot truncates it back to the last acknowledged record.
//
//grblint:locked mu
func (l *Log) rollbackLocked(cause error) {
	if err := l.active.Truncate(l.actSize); err != nil {
		l.broken = fmt.Errorf("rollback to %d after %v failed: %w", l.actSize, cause, err)
		l.sealActiveLocked()
	}
}

// ensureActiveLocked opens (or creates) the segment appends will land in.
//
//grblint:locked mu
func (l *Log) ensureActiveLocked() error {
	if l.active != nil {
		return nil
	}
	if n := len(l.segments); n > 0 && l.segments[n-1].size < l.opt.SegmentBytes {
		// Reopen the recovered tail segment for appending.
		seg := &l.segments[n-1]
		f, err := os.OpenFile(seg.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("wal: reopen %s: %w", filepath.Base(seg.path), err)
		}
		l.active = f
		l.actSize = seg.size
		return nil
	}
	// Fresh segment: header first, synced before any record can land, so
	// a crash leaves either no file, a truncated header (dropped at the
	// next recovery) or a complete empty segment.
	// O_APPEND on every segment (fresh and reopened): writes always land
	// at EOF, so the append position survives a failed-write rollback
	// (rollbackLocked) without any offset bookkeeping.
	path := filepath.Join(l.dir, fmt.Sprintf("wal-%016x.seg", l.nextLSN))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	hdr := encodeSegmentHeader(l.nextLSN, l.chain)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("wal: write segment header: %w", err)
	}
	if !l.opt.NoSync {
		if err := f.Sync(); err != nil {
			f.Close()
			os.Remove(path)
			return fmt.Errorf("wal: sync segment header: %w", err)
		}
		l.fsyncs.Add(1)
		l.syncDir()
	}
	l.segments = append(l.segments, segment{
		path: path, firstLSN: l.nextLSN, lastLSN: l.nextLSN - 1, size: segHeaderLen,
	})
	l.active = f
	l.actSize = segHeaderLen
	return nil
}

// sealActiveLocked closes the active segment; the next append rotates.
//
//grblint:locked mu
func (l *Log) sealActiveLocked() {
	if l.active != nil {
		l.active.Close()
		l.active = nil
		l.actSize = 0
	}
}

// Replay streams every record with LSN >= from, in order, re-verifying
// CRCs and the hash chain as it reads. fn errors abort the replay.
func (l *Log) Replay(from uint64, fn func(r Record) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return walk(l.segments, from, l.nextLSN, func(rec Record, _ []byte) error { return fn(rec) })
}

// TruncateBefore removes sealed segments whose every record is older than
// lsn — the snapshot store calls it once all graphs are durable past that
// point. The newest segment is always retained (it holds the chain head
// and the append position). Returns the number of segments removed.
func (l *Log) TruncateBefore(lsn uint64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	removed := 0
	for len(l.segments) > 1 && l.segments[0].lastLSN < lsn {
		if err := os.Remove(l.segments[0].path); err != nil {
			return removed, fmt.Errorf("wal: truncate %s: %w", filepath.Base(l.segments[0].path), err)
		}
		l.segments = l.segments[1:]
		removed++
	}
	if removed > 0 {
		l.truncated.Add(int64(removed))
		l.syncDir()
	}
	return removed, nil
}

// Synced reports whether appends are fsynced before they return. False
// only when Options.NoSync was set — a returned LSN is then an ordering
// fact, not a durability promise, and callers surfacing durability to
// their own clients must not claim it.
func (l *Log) Synced() bool { return !l.opt.NoSync }

// NextLSN returns the LSN the next append will be assigned.
func (l *Log) NextLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN
}

// Stats snapshots the log counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	segs := len(l.segments)
	var first uint64
	if segs > 0 {
		first = l.segments[0].firstLSN
	}
	next := l.nextLSN
	l.mu.Unlock()
	return Stats{
		Segments:     segs,
		FirstLSN:     first,
		NextLSN:      next,
		Appends:      l.appends.Load(),
		AppendBytes:  l.appendBytes.Load(),
		Fsyncs:       l.fsyncs.Load(),
		Truncated:    l.truncated.Load(),
		Replayed:     int64(l.rec.Records),
		TornBytes:    l.rec.TornBytes,
		SyncDisabled: l.opt.NoSync,
	}
}

// Close seals the active segment. Further appends fail.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	l.sealActiveLocked()
	return nil
}

// syncDir fsyncs the log directory so segment creates and removes are
// durable; best-effort (some filesystems reject directory fsync).
func (l *Log) syncDir() {
	if d, err := os.Open(l.dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}

// corruptf wraps ErrCorrupt with a diagnostic detail.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("wal: %s: %w", fmt.Sprintf(format, args...), ErrCorrupt)
}

//
// Encoding
//

// encodeSegmentHeader builds the 56-byte segment header.
func encodeSegmentHeader(firstLSN uint64, carry digest) []byte {
	hdr := make([]byte, segHeaderLen)
	copy(hdr[0:8], segMagic)
	binary.LittleEndian.PutUint64(hdr[8:16], firstLSN)
	copy(hdr[16:48], carry[:])
	binary.LittleEndian.PutUint64(hdr[48:56], crc64.Checksum(hdr[:48], crcTable))
	return hdr
}

// readSegmentHeader reads and validates a segment header. Every failure
// wraps ErrCorrupt.
func readSegmentHeader(r io.Reader) (firstLSN uint64, carry digest, err error) {
	var hdr [segHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, carry, corruptf("short segment header: %v", err)
	}
	if string(hdr[0:8]) != segMagic {
		return 0, carry, corruptf("bad segment magic %q", hdr[0:8])
	}
	if got := binary.LittleEndian.Uint64(hdr[48:56]); got != crc64.Checksum(hdr[:48], crcTable) {
		return 0, carry, corruptf("segment header checksum mismatch")
	}
	firstLSN = binary.LittleEndian.Uint64(hdr[8:16])
	if firstLSN == 0 {
		return 0, carry, corruptf("segment claims first LSN 0")
	}
	copy(carry[:], hdr[16:48])
	return firstLSN, carry, nil
}

// encodeRecord builds one framed record.
func encodeRecord(lsn uint64, prev digest, payload []byte) []byte {
	n := recHeaderLen + len(payload) + recTrailerLen
	rec := make([]byte, n)
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint64(rec[4:12], lsn)
	copy(rec[12:44], prev[:])
	copy(rec[44:], payload)
	crc := crc64.Checksum(rec[:n-recTrailerLen], crcTable)
	binary.LittleEndian.PutUint64(rec[n-recTrailerLen:], crc)
	return rec
}

// prevOf extracts the chain link of an encoded record.
func prevOf(encoded []byte) digest {
	var d digest
	copy(d[:], encoded[12:44])
	return d
}

// readRecord reads and CRC-validates one record from r. A clean EOF at a
// record boundary returns io.EOF; any other failure — short read, a
// length field beyond MaxRecordBytes, a checksum mismatch — wraps
// ErrCorrupt. Chain and LSN checks are StreamReader.read's (they need the
// running state). A length field is never trusted to size an allocation:
// past readChunk the buffer grows, at most doubling, only as bytes arrive.
func readRecord(r io.Reader) (Record, []byte, error) {
	var hdr [recHeaderLen]byte
	n, err := io.ReadFull(r, hdr[:])
	if n == 0 && (errors.Is(err, io.EOF)) {
		return Record{}, nil, io.EOF
	}
	if err != nil {
		return Record{}, nil, corruptf("short record header: %v", err)
	}
	payloadLen := binary.LittleEndian.Uint32(hdr[0:4])
	if payloadLen == 0 || payloadLen > MaxRecordBytes {
		return Record{}, nil, corruptf("record payload length %d outside (0, %d]", payloadLen, MaxRecordBytes)
	}
	size := recHeaderLen + int(payloadLen) + recTrailerLen
	encoded := append(make([]byte, 0, min(size, readChunk)), hdr[:]...)
	for len(encoded) < size {
		k := min(size, max(cap(encoded), 2*len(encoded)))
		encoded = slices.Grow(encoded, k-len(encoded))
		if _, err := io.ReadFull(r, encoded[len(encoded):k]); err != nil {
			return Record{}, nil, corruptf("short record body: %v", err)
		}
		encoded = encoded[:k]
	}
	body := encoded[:len(encoded)-recTrailerLen]
	want := crc64.Checksum(body, crcTable)
	if got := binary.LittleEndian.Uint64(encoded[len(encoded)-recTrailerLen:]); got != want {
		return Record{}, nil, corruptf("record checksum mismatch: stored %016x, computed %016x", got, want)
	}
	rec := Record{
		LSN:     binary.LittleEndian.Uint64(hdr[4:12]),
		Payload: encoded[recHeaderLen : recHeaderLen+int(payloadLen)],
	}
	return rec, encoded, nil
}
