package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// appendN appends n numbered payloads and returns them.
func appendN(t *testing.T, l *Log, start, n int) [][]byte {
	t.Helper()
	var out [][]byte
	for i := 0; i < n; i++ {
		p := []byte(fmt.Sprintf("batch-%04d", start+i))
		lsn, err := l.Append(p)
		if err != nil {
			t.Fatalf("Append(%d): %v", start+i, err)
		}
		if want := uint64(start + i); lsn != want {
			t.Fatalf("Append returned LSN %d, want %d", lsn, want)
		}
		out = append(out, p)
	}
	return out
}

// collect replays everything from lsn 'from' into a slice.
func collect(t *testing.T, l *Log, from uint64) []Record {
	t.Helper()
	var recs []Record
	err := l.Replay(from, func(r Record) error {
		cp := append([]byte(nil), r.Payload...)
		recs = append(recs, Record{LSN: r.LSN, Payload: cp})
		return nil
	})
	if err != nil {
		t.Fatalf("Replay(%d): %v", from, err)
	}
	return recs
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	payloads := appendN(t, l, 1, 25)
	recs := collect(t, l, 1)
	if len(recs) != len(payloads) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(payloads))
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) {
			t.Errorf("record %d: LSN %d, want %d", i, r.LSN, i+1)
		}
		if !bytes.Equal(r.Payload, payloads[i]) {
			t.Errorf("record %d: payload %q, want %q", i, r.Payload, payloads[i])
		}
	}
	if got := l.NextLSN(); got != 26 {
		t.Fatalf("NextLSN = %d, want 26", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReopenContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 10)
	l.Close()

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if rec := l2.Recovery(); rec.Records != 10 || rec.TornBytes != 0 {
		t.Fatalf("recovery = %+v, want 10 clean records", rec)
	}
	if got := l2.NextLSN(); got != 11 {
		t.Fatalf("NextLSN after reopen = %d, want 11", got)
	}
	appendN(t, l2, 11, 5)
	if got := len(collect(t, l2, 1)); got != 15 {
		t.Fatalf("replayed %d records after reopen+append, want 15", got)
	}
}

// TestAppendRollbackKeepsBoundary: after a failed write leaves partial
// bytes in the active segment, the rollback must restore the append
// position to the last record boundary — a stale file offset would make
// the next append leave a zero-filled gap that recovery reads as a torn
// tail, discarding acknowledged records after it.
func TestAppendRollbackKeepsBoundary(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	payloads := appendN(t, l, 1, 1)
	// Simulate the Append error branch: partial bytes land in the active
	// segment, then rollbackLocked runs (exactly what a failed write or
	// sync triggers).
	l.mu.Lock()
	if _, err := l.active.Write([]byte("partial-garbage")); err != nil {
		l.mu.Unlock()
		t.Fatal(err)
	}
	l.rollbackLocked(errors.New("injected write failure"))
	l.mu.Unlock()

	// The next append must land flush against record 1 — no gap.
	payloads = append(payloads, appendN(t, l, 2, 1)...)
	l.Close()
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after rollback: %v", err)
	}
	defer l2.Close()
	if rec := l2.Recovery(); rec.Records != 2 || rec.TornBytes != 0 {
		t.Fatalf("recovery = %+v, want 2 clean records (rollback left a gap?)", rec)
	}
	recs := collect(t, l2, 1)
	if len(recs) != 2 || !bytes.Equal(recs[1].Payload, payloads[1]) {
		t.Fatalf("replay after rollback: %d records", len(recs))
	}
}

// TestAppendPoisonedWhenRollbackFails: when the partial bytes cannot be
// truncated away, the log must refuse further appends — writing past the
// garbage would bury acknowledged records behind a tail the next boot
// truncates.
func TestAppendPoisonedWhenRollbackFails(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	payloads := appendN(t, l, 1, 1)
	l.mu.Lock()
	if _, err := l.active.Write([]byte{0xde, 0xad}); err != nil {
		l.mu.Unlock()
		t.Fatal(err)
	}
	l.active.Close() // the rollback's truncate now fails
	l.rollbackLocked(errors.New("injected sync failure"))
	l.mu.Unlock()

	if _, err := l.Append([]byte("after-poison")); err == nil || !strings.Contains(err.Error(), "poisoned") {
		t.Fatalf("append on a poisoned log: err = %v, want poisoned", err)
	}
	l.Close()

	// The garbage stayed a tail: recovery truncates it, keeping record 1.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after poisoning: %v", err)
	}
	defer l2.Close()
	rec := l2.Recovery()
	if rec.Records != 1 || rec.TornBytes != 2 {
		t.Fatalf("recovery = %+v, want 1 record + 2 torn bytes", rec)
	}
	recs := collect(t, l2, 1)
	if len(recs) != 1 || !bytes.Equal(recs[0].Payload, payloads[0]) {
		t.Fatalf("acknowledged record lost after poisoning: %d records", len(recs))
	}
}

func TestSegmentRotationAndTruncate(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation every couple of records.
	l, err := Open(dir, Options{SegmentBytes: 200, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 20)
	st := l.Stats()
	if st.Segments < 5 {
		t.Fatalf("expected many small segments, got %d", st.Segments)
	}
	// Everything before LSN 15 is durable elsewhere: truncate.
	removed, err := l.TruncateBefore(15)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("TruncateBefore removed nothing")
	}
	recs := collect(t, l, 15)
	if len(recs) == 0 || recs[0].LSN > 15 {
		t.Fatalf("replay from 15 lost records: first=%v", recs)
	}
	// The retained prefix may start before 15 (segment granularity), but
	// replay must still verify cleanly end to end.
	all := collect(t, l, 1)
	if all[len(all)-1].LSN != 20 {
		t.Fatalf("tail LSN %d, want 20", all[len(all)-1].LSN)
	}
	l.Close()

	// Reopen after truncation: the chain origin is now the oldest retained
	// segment's carry-in digest.
	l2, err := Open(dir, Options{SegmentBytes: 200})
	if err != nil {
		t.Fatalf("reopen after truncate: %v", err)
	}
	defer l2.Close()
	if got := l2.NextLSN(); got != 21 {
		t.Fatalf("NextLSN after truncate+reopen = %d, want 21", got)
	}
}

func TestTruncateKeepsNewestSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 1, 3)
	// Everything is in one segment; truncating "all of it" must keep the
	// segment (it holds the chain head and append position).
	if _, err := l.TruncateBefore(100); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Segments != 1 {
		t.Fatalf("segments = %d, want the newest retained", st.Segments)
	}
	appendN(t, l, 4, 2)
}

// lastSegment returns the path of the newest segment file.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no segments in %s (err=%v)", dir, err)
	}
	return paths[len(paths)-1]
}

func TestTornTailTruncatedAndLogged(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 8)
	l.Close()

	// Simulate kill -9 mid-append: chop bytes off the final record.
	seg := lastSegment(t, dir)
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open with torn tail must succeed, got %v", err)
	}
	defer l2.Close()
	rec := l2.Recovery()
	if rec.Records != 7 {
		t.Fatalf("recovered %d records, want 7 (torn 8th dropped)", rec.Records)
	}
	if rec.TornBytes == 0 || rec.TornFile == "" {
		t.Fatalf("torn tail not reported: %+v", rec)
	}
	// The log must be appendable and the new record takes the dropped LSN.
	lsn, err := l2.Append([]byte("after-crash"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 8 {
		t.Fatalf("post-truncation append got LSN %d, want 8", lsn)
	}
	recs := collect(t, l2, 1)
	if len(recs) != 8 || string(recs[7].Payload) != "after-crash" {
		t.Fatalf("replay after torn-tail recovery wrong: %d records", len(recs))
	}
}

func TestTornSegmentHeaderDropped(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 150})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 6) // several sealed segments
	l.Close()

	// Simulate a crash right after creating a new segment: a file with
	// half a header and no records.
	next := filepath.Join(dir, fmt.Sprintf("wal-%016x.seg", uint64(7)))
	if err := os.WriteFile(next, []byte("LGWAL0"), 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{SegmentBytes: 150})
	if err != nil {
		t.Fatalf("open with torn header must succeed, got %v", err)
	}
	defer l2.Close()
	if got := l2.NextLSN(); got != 7 {
		t.Fatalf("NextLSN = %d, want 7", got)
	}
	if _, err := os.Stat(next); !os.IsNotExist(err) {
		t.Fatalf("torn header file not removed (stat err=%v)", err)
	}
	appendN(t, l2, 7, 2)
}

func TestBitFlipDetected(t *testing.T) {
	for _, tc := range []struct {
		name   string
		offset func(size int64) int64 // byte to flip
	}{
		{"header", func(int64) int64 { return 20 }},         // chain carry-in byte
		{"payload", func(s int64) int64 { return s/2 + 1 }}, // middle of a record
		{"trailer", func(s int64) int64 { return s - 1 }},   // last CRC byte
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			appendN(t, l, 1, 6)
			l.Close()

			seg := lastSegment(t, dir)
			raw, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			off := tc.offset(int64(len(raw)))
			raw[off] ^= 0x40
			if err := os.WriteFile(seg, raw, 0o644); err != nil {
				t.Fatal(err)
			}

			l2, err := Open(dir, Options{})
			if err == nil {
				// Damage inside the last segment's record region is
				// indistinguishable from a torn write, so it may be
				// tolerated — but only by dropping the damaged suffix and
				// logging the loss, never by serving flipped bytes.
				rec := l2.Recovery()
				l2.Close()
				if tc.name == "trailer" || tc.name == "payload" {
					if rec.Records >= 6 || rec.TornBytes == 0 {
						t.Fatalf("bit flip in %s survived recovery: %+v", tc.name, rec)
					}
					return
				}
				t.Fatalf("bit flip in %s not detected (recovery %+v)", tc.name, rec)
			}
		})
	}
}

func TestBitFlipInLengthFieldTruncatesAndLogs(t *testing.T) {
	// A flipped length field is indistinguishable from a torn write at
	// the same offset, so the contract is torn-tail handling: everything
	// from the damaged record on is dropped, and the loss is reported.
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 6)
	l.Close()

	seg := lastSegment(t, dir)
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw[segHeaderLen] ^= 0x40 // first record's length field
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer l2.Close()
	rec := l2.Recovery()
	if rec.Records != 0 || rec.TornBytes == 0 || rec.TornFile == "" {
		t.Fatalf("recovery = %+v, want all records dropped and loss logged", rec)
	}
	if got := l2.NextLSN(); got != 1 {
		t.Fatalf("NextLSN = %d, want 1", got)
	}
}

func TestBitFlipInSealedSegmentIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 150})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 8) // multiple segments
	l.Close()

	paths, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(paths) < 2 {
		t.Fatalf("need >=2 segments, got %d", len(paths))
	}
	raw, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[segHeaderLen+10] ^= 0x01 // inside the first record of a sealed segment
	if err := os.WriteFile(paths[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = Open(dir, Options{SegmentBytes: 150})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("damage in a sealed (non-last) segment must be ErrCorrupt, got %v", err)
	}
}

func TestSpliceTamperingDetected(t *testing.T) {
	// Build two logs with identical record sizes, then splice a
	// CRC-valid record from log B over the same position in log A. The
	// CRC passes; the hash chain must not.
	dirA, dirB := t.TempDir(), t.TempDir()
	la, err := Open(dirA, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lb, err := Open(dirB, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		if _, err := la.Append([]byte(fmt.Sprintf("AAAA-%04d", i))); err != nil {
			t.Fatal(err)
		}
		if _, err := lb.Append([]byte(fmt.Sprintf("BBBB-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	la.Close()
	lb.Close()

	segA, segB := lastSegment(t, dirA), lastSegment(t, dirB)
	rawA, err := os.ReadFile(segA)
	if err != nil {
		t.Fatal(err)
	}
	rawB, err := os.ReadFile(segB)
	if err != nil {
		t.Fatal(err)
	}
	recLen := (len(rawA) - segHeaderLen) / 4
	// Overwrite record 2 of A with record 2 of B (same LSN, valid CRC,
	// wrong chain: its prev-digest links B's record 1, not A's).
	start := segHeaderLen + recLen
	copy(rawA[start:start+recLen], rawB[start:start+recLen])
	if err := os.WriteFile(segA, rawA, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = Open(dirA, Options{})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("spliced record must fail open with ErrCorrupt, got %v", err)
	}
}

func TestDeletedRecordDetected(t *testing.T) {
	// Removing a whole record from the middle is splice tampering too:
	// the successor's prev-digest no longer matches, and LSNs skip.
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("rec-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	seg := lastSegment(t, dir)
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	recLen := (len(raw) - segHeaderLen) / 4
	cut := append([]byte(nil), raw[:segHeaderLen+recLen]...)
	cut = append(cut, raw[segHeaderLen+2*recLen:]...) // drop record 2
	if err := os.WriteFile(seg, cut, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = Open(dir, Options{})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("deleted middle record must fail open with ErrCorrupt, got %v", err)
	}
}

func TestReplayFromOffset(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 1, 12)
	recs := collect(t, l, 9)
	if len(recs) != 4 || recs[0].LSN != 9 || recs[3].LSN != 12 {
		t.Fatalf("Replay(9) = %d records starting %d", len(recs), recs[0].LSN)
	}
	if got := collect(t, l, 13); len(got) != 0 {
		t.Fatalf("Replay past the end returned %d records", len(got))
	}
}

func TestAppendValidation(t *testing.T) {
	l, err := Open(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(nil); err == nil {
		t.Fatal("empty payload accepted")
	}
	if _, err := l.Append(make([]byte, MaxRecordBytes+1)); err == nil {
		t.Fatal("oversized payload accepted")
	}
	l.Close()
	if _, err := l.Append([]byte("x")); err == nil {
		t.Fatal("append after Close accepted")
	}
}

func TestStatsCounters(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 5)
	st := l.Stats()
	if st.Appends != 5 || st.AppendBytes == 0 || st.Fsyncs < 5 || st.NextLSN != 6 || st.FirstLSN != 1 {
		t.Fatalf("stats = %+v", st)
	}
	l.Close()
}

// TestDamageAfterOpenCaughtOnEveryReadPath damages a sealed segment after
// Open has verified it, then reads the log back every way it can be read:
// Replay, StreamTo, and a StreamReader over a window served before the
// damage with the same damage applied to its bytes (the wire format is the
// segment format, so one edit fits both). Each must refuse with ErrCorrupt
// rather than serve the damaged history.
func TestDamageAfterOpenCaughtOnEveryReadPath(t *testing.T) {
	// Fixed-width payloads give every record the same length, and
	// 56 + 4×60-byte segments seal after four records.
	const recLen = recHeaderLen + 8 + recTrailerLen
	opt := Options{NoSync: true, SegmentBytes: segHeaderLen + 4*recLen}
	fill := func(t *testing.T, dir, prefix string) *Log {
		t.Helper()
		l, err := Open(dir, opt)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 10; i++ {
			if _, err := l.Append([]byte(fmt.Sprintf("%s-%04d", prefix, i))); err != nil {
				t.Fatal(err)
			}
		}
		return l
	}
	window := func(t *testing.T, l *Log) []byte {
		t.Helper()
		var buf bytes.Buffer
		if _, err := l.StreamTo(&buf, 1, 0); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	other := fill(t, t.TempDir(), "BBB")
	defer other.Close()
	otherBytes := window(t, other)

	// Each damage rewrites record 2, in the middle of the first segment.
	rec2 := segHeaderLen + recLen
	for _, d := range []struct {
		name   string
		damage func(raw []byte) []byte
	}{
		{"flipped payload bit", func(raw []byte) []byte {
			raw[rec2+recHeaderLen+3] ^= 0x10
			return raw
		}},
		{"record spliced from another log", func(raw []byte) []byte {
			copy(raw[rec2:rec2+recLen], otherBytes[rec2:rec2+recLen])
			return raw
		}},
		{"deleted middle record", func(raw []byte) []byte {
			return append(raw[:rec2:rec2], raw[rec2+recLen:]...)
		}},
	} {
		t.Run(d.name, func(t *testing.T) {
			dir := t.TempDir()
			l := fill(t, dir, "AAA")
			defer l.Close()
			served := window(t, l)
			paths, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
			if len(paths) < 3 {
				t.Fatalf("want the first segment sealed behind two more, got %d segments", len(paths))
			}
			raw, err := os.ReadFile(paths[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(paths[0], d.damage(raw), 0o644); err != nil {
				t.Fatal(err)
			}

			replayErr := l.Replay(1, func(Record) error { return nil })
			_, streamErr := l.StreamTo(io.Discard, 1, 0)
			var readErr error
			sr, err := NewStreamReader(bytes.NewReader(d.damage(served)))
			if err != nil {
				t.Fatal(err)
			}
			for readErr == nil {
				_, readErr = sr.Next()
			}
			for _, got := range []struct {
				path string
				err  error
			}{{"Replay", replayErr}, {"StreamTo", streamErr}, {"StreamReader", readErr}} {
				if !errors.Is(got.err, ErrCorrupt) {
					t.Errorf("%s after damage: err = %v, want ErrCorrupt", got.path, got.err)
				}
			}
		})
	}
}
