package mmio

import (
	"errors"
	"strconv"
	"strings"
	"testing"
)

// TestHeaderRejection covers the hardened size-line validation: counts
// that overflow int, disagree with the dimensions, or disagree with the
// entry stream must all be rejected with ErrFormat.
func TestHeaderRejection(t *testing.T) {
	huge := "9223372036854775808" // MaxInt64+1: overflows int everywhere
	cases := []struct {
		name string
		src  string
		frag string // must appear in the error text
	}{
		{"rows overflow", "%%MatrixMarket matrix coordinate real general\n" + huge + " 2 1\n1 1 1\n", "overflows int"},
		{"cols overflow", "%%MatrixMarket matrix coordinate real general\n2 " + huge + " 1\n1 1 1\n", "overflows int"},
		{"nnz overflow", "%%MatrixMarket matrix coordinate real general\n2 2 " + huge + "\n1 1 1\n", "overflows int"},
		{"nnz exceeds dims", "%%MatrixMarket matrix coordinate real general\n2 2 5\n1 1 1\n", "exceed"},
		{"nnz on empty dims", "%%MatrixMarket matrix coordinate real general\n0 0 1\n1 1 1\n", "exceed"},
		{"negative rows", "%%MatrixMarket matrix coordinate real general\n-2 2 1\n1 1 1\n", "negative"},
		{"truncated stream", "%%MatrixMarket matrix coordinate real general\n3 3 3\n1 1 1\n", "stream ended after 1 of 3"},
		{"trailing entries", "%%MatrixMarket matrix coordinate real general\n3 3 1\n1 1 1\n2 2 1\n", "trailing entry"},
		{"bad row index", "%%MatrixMarket matrix coordinate real general\n3 3 1\nx 1 1\n", "row index"},
		{"bad value", "%%MatrixMarket matrix coordinate real general\n3 3 1\n1 1 zz\n", "value"},
		{"nan value", "%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 1\n2 1 nan\n", "line 4: entry 2 value is NaN"},
		{"NaN symmetric", "%%MatrixMarket matrix coordinate real symmetric\n3 3 1\n2 1 NaN\n", "line 3: entry 1 value is NaN"},
		{"inf sums to NaN", "%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 inf\n1 1 -inf\n", "sum +Inf and -Inf to NaN"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := ReadMatrix(strings.NewReader(tc.src))
			if !errors.Is(err, ErrFormat) {
				t.Fatalf("want ErrFormat, got %v", err)
			}
			if !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("error %q does not mention %q", err, tc.frag)
			}
		})
	}
}

// TestErrorLineNumbers: every parse error names the 1-based input line it
// fired on, comments and blanks included in the count.
func TestErrorLineNumbers(t *testing.T) {
	src := "%%MatrixMarket matrix coordinate real general\n% comment\n\n3 3 2\n1 1 1\nbad line here\n"
	_, _, err := ReadMatrix(strings.NewReader(src))
	if !errors.Is(err, ErrFormat) {
		t.Fatalf("want ErrFormat, got %v", err)
	}
	// The bad entry sits on line 6 (banner, comment, blank, size, entry, bad).
	if !strings.Contains(err.Error(), "line 6") {
		t.Fatalf("error %q does not carry line 6", err)
	}

	badSize := "%%MatrixMarket matrix coordinate real general\n%c1\n%c2\nnot a size line at all x\n"
	_, _, err = ReadMatrix(strings.NewReader(badSize))
	if !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), "line 4") {
		t.Fatalf("size-line error %q does not carry line 4", err)
	}
}

// TestStrconvCauseWrapped: numeric failures keep the strconv error in the
// chain (%w all the way down), so callers can distinguish range errors
// from syntax errors.
func TestStrconvCauseWrapped(t *testing.T) {
	src := "%%MatrixMarket matrix coordinate real general\n3 3 1\n1 1 1e999\n"
	_, _, err := ReadMatrix(strings.NewReader(src))
	if !errors.Is(err, ErrFormat) {
		t.Fatalf("want ErrFormat, got %v", err)
	}
	if !errors.Is(err, strconv.ErrRange) {
		t.Fatalf("strconv.ErrRange not in chain: %v", err)
	}
}

// TestHugeNNZNoPrealloc: a header declaring a huge (but in-range) nnz on
// a large matrix must fail fast on the missing entries, not allocate
// nnz-sized slices up front.
func TestHugeNNZNoPrealloc(t *testing.T) {
	src := "%%MatrixMarket matrix coordinate real general\n100000 100000 2000000000\n1 1 1\n"
	_, _, err := ReadMatrix(strings.NewReader(src))
	if !errors.Is(err, ErrFormat) {
		t.Fatalf("want ErrFormat, got %v", err)
	}
}
