// Package mmio reads and writes sparse matrices in the Matrix Market
// exchange format (Boisvert, Pozo, Remington, NISTIR 5935), the I/O
// utility the paper lists as a required LAGraph support component (§III).
//
// Supported: coordinate-format real, integer and pattern matrices with
// general, symmetric and skew-symmetric storage. Dense ("array") format
// and complex fields are not supported.
package mmio

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"

	"lagraph/internal/grb"
)

// Field is the value type declared in the Matrix Market header.
type Field int

const (
	// Real holds floating-point values.
	Real Field = iota
	// Integer holds integer values.
	Integer
	// Pattern holds no values; entries read as 1.
	Pattern
)

// Symmetry is the storage symmetry declared in the header.
type Symmetry int

const (
	// General stores every entry explicitly.
	General Symmetry = iota
	// Symmetric stores the lower triangle; (i,j) implies (j,i).
	Symmetric
	// SkewSymmetric stores the strict lower triangle; (i,j)=v implies
	// (j,i)=-v.
	SkewSymmetric
)

// Header describes a parsed Matrix Market banner.
type Header struct {
	Field    Field
	Symmetry Symmetry
	NRows    int
	NCols    int
	NNZ      int // entries as stored (before symmetry expansion)
}

// ErrFormat reports a malformed Matrix Market stream. Every parse error
// wraps it (match with errors.Is) and carries the 1-based line number of
// the offending input line.
var ErrFormat = errors.New("mmio: malformed Matrix Market data")

// maxPrealloc caps slice preallocation from the declared nnz, so a header
// lying about its size cannot force a huge allocation before the entry
// stream disproves it.
const maxPrealloc = 1 << 20

// ReadMatrix parses a coordinate Matrix Market stream into a float64
// matrix, expanding symmetric storage. The header is validated against
// the entry stream: a stream with fewer or more entries than the declared
// nnz is rejected, as are counts that overflow int or exceed rows×cols.
func ReadMatrix(r io.Reader) (*grb.Matrix[float64], *Header, error) {
	lr := &lineReader{br: bufio.NewReader(r)}
	h, err := readBanner(lr)
	if err != nil {
		return nil, nil, err
	}
	cap := h.NNZ
	if cap > maxPrealloc {
		cap = maxPrealloc
	}
	is := make([]int, 0, cap)
	js := make([]int, 0, cap)
	xs := make([]float64, 0, cap)
	infinite := false // duplicates summing +Inf and −Inf make a NaN
	for k := 0; k < h.NNZ; k++ {
		line, ln, err := lr.nextData()
		if err != nil {
			return nil, nil, fmt.Errorf("%w: line %d: stream ended after %d of %d declared entries: %w",
				ErrFormat, ln, k, h.NNZ, err)
		}
		f := strings.Fields(line)
		wantFields := 3
		if h.Field == Pattern {
			wantFields = 2
		}
		if len(f) < wantFields {
			return nil, nil, fmt.Errorf("%w: line %d: entry %d has %d fields, want %d",
				ErrFormat, ln, k+1, len(f), wantFields)
		}
		i, err1 := strconv.Atoi(f[0])
		j, err2 := strconv.Atoi(f[1])
		if err1 != nil {
			return nil, nil, fmt.Errorf("%w: line %d: entry %d row index: %w", ErrFormat, ln, k+1, err1)
		}
		if err2 != nil {
			return nil, nil, fmt.Errorf("%w: line %d: entry %d column index: %w", ErrFormat, ln, k+1, err2)
		}
		if i < 1 || i > h.NRows || j < 1 || j > h.NCols {
			return nil, nil, fmt.Errorf("%w: line %d: entry %d (%d,%d) outside %d×%d",
				ErrFormat, ln, k+1, i, j, h.NRows, h.NCols)
		}
		v := 1.0
		if h.Field != Pattern {
			v, err = strconv.ParseFloat(f[2], 64)
			if err != nil {
				return nil, nil, fmt.Errorf("%w: line %d: entry %d value: %w", ErrFormat, ln, k+1, err)
			}
			// A NaN weight has no order: min.plus and a relaxation
			// disagree on it, so a graph is never loaded holding one.
			if math.IsNaN(v) {
				return nil, nil, fmt.Errorf("%w: line %d: entry %d value is NaN", ErrFormat, ln, k+1)
			}
			infinite = infinite || math.IsInf(v, 0)
		}
		i--
		j--
		is = append(is, i)
		js = append(js, j)
		xs = append(xs, v)
		if i != j {
			switch h.Symmetry {
			case Symmetric:
				is = append(is, j)
				js = append(js, i)
				xs = append(xs, v)
			case SkewSymmetric:
				is = append(is, j)
				js = append(js, i)
				xs = append(xs, -v)
			}
		}
	}
	// The header must agree with the stream in both directions: running
	// out early is caught above; extra entries past the declared count are
	// equally a lie about nnz.
	if line, ln, err := lr.nextData(); err == nil {
		return nil, nil, fmt.Errorf("%w: line %d: trailing entry %q after %d declared entries",
			ErrFormat, ln, line, h.NNZ)
	}
	a, err := grb.NewMatrix[float64](h.NRows, h.NCols)
	if err != nil {
		return nil, nil, err
	}
	if err := a.Build(is, js, xs, grb.Plus[float64]()); err != nil {
		return nil, nil, err
	}
	if infinite {
		if _, _, vs := a.ExtractTuples(); slices.ContainsFunc(vs, math.IsNaN) {
			return nil, nil, fmt.Errorf("%w: duplicate entries sum +Inf and -Inf to NaN", ErrFormat)
		}
	}
	return a, h, nil
}

// ReadMatrixFile reads a Matrix Market file from disk.
func ReadMatrixFile(path string) (*grb.Matrix[float64], *Header, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return ReadMatrix(f)
}

// WriteMatrix writes a in coordinate/real/general form.
func WriteMatrix(w io.Writer, a *grb.Matrix[float64]) error {
	bw := bufio.NewWriter(w)
	is, js, xs := a.ExtractTuples()
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real general\n"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "%%generated by lagraph-go\n%d %d %d\n", a.Nrows(), a.Ncols(), len(is)); err != nil {
		return err
	}
	for k := range is {
		if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", is[k]+1, js[k]+1, xs[k]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteMatrixFile writes a Matrix Market file to disk.
func WriteMatrixFile(path string, a *grb.Matrix[float64]) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return WriteMatrix(f, a)
}

// WritePattern writes only the nonzero structure (coordinate pattern).
func WritePattern(w io.Writer, a *grb.Matrix[float64]) error {
	bw := bufio.NewWriter(w)
	is, js, _ := a.ExtractTuples()
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate pattern general\n%d %d %d\n",
		a.Nrows(), a.Ncols(), len(is)); err != nil {
		return err
	}
	for k := range is {
		if _, err := fmt.Fprintf(bw, "%d %d\n", is[k]+1, js[k]+1); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func readBanner(lr *lineReader) (*Header, error) {
	line, err := lr.read()
	if err != nil && line == "" {
		return nil, fmt.Errorf("%w: empty stream", ErrFormat)
	}
	f := strings.Fields(strings.ToLower(line))
	if len(f) < 5 || f[0] != "%%matrixmarket" || f[1] != "matrix" {
		return nil, fmt.Errorf("%w: bad banner %q", ErrFormat, strings.TrimSpace(line))
	}
	if f[2] != "coordinate" {
		return nil, fmt.Errorf("%w: only coordinate format supported, got %q", ErrFormat, f[2])
	}
	h := &Header{}
	switch f[3] {
	case "real", "double":
		h.Field = Real
	case "integer":
		h.Field = Integer
	case "pattern":
		h.Field = Pattern
	default:
		return nil, fmt.Errorf("%w: unsupported field %q", ErrFormat, f[3])
	}
	switch f[4] {
	case "general":
		h.Symmetry = General
	case "symmetric":
		h.Symmetry = Symmetric
	case "skew-symmetric":
		h.Symmetry = SkewSymmetric
	default:
		return nil, fmt.Errorf("%w: unsupported symmetry %q", ErrFormat, f[4])
	}
	sizeLine, ln, err := lr.nextData()
	if err != nil {
		return nil, fmt.Errorf("%w: line %d: missing size line: %w", ErrFormat, ln, err)
	}
	sf := strings.Fields(sizeLine)
	if len(sf) != 3 {
		return nil, fmt.Errorf("%w: line %d: bad size line %q", ErrFormat, ln, sizeLine)
	}
	if h.NRows, err = parseCount(sf[0], "row count", ln); err != nil {
		return nil, err
	}
	if h.NCols, err = parseCount(sf[1], "column count", ln); err != nil {
		return nil, err
	}
	if h.NNZ, err = parseCount(sf[2], "entry count", ln); err != nil {
		return nil, err
	}
	// nnz ≤ rows×cols, computed without the product (which could itself
	// overflow): for nnz ≥ 1 and cols ≥ 1, nnz ≤ r·c ⇔ (nnz-1)/c ≤ r-1.
	if h.NNZ > 0 && (h.NCols == 0 || (h.NNZ-1)/h.NCols > h.NRows-1) {
		return nil, fmt.Errorf("%w: line %d: %d entries exceed %d×%d matrix",
			ErrFormat, ln, h.NNZ, h.NRows, h.NCols)
	}
	return h, nil
}

// parseCount reads a non-negative size-line count, rejecting values that
// do not fit in int.
func parseCount(s, what string, ln int) (int, error) {
	v, err := strconv.ParseInt(s, 10, strconv.IntSize)
	if err != nil {
		if errors.Is(err, strconv.ErrRange) {
			return 0, fmt.Errorf("%w: line %d: %s %q overflows int", ErrFormat, ln, what, s)
		}
		return 0, fmt.Errorf("%w: line %d: %s %q: %w", ErrFormat, ln, what, s, err)
	}
	if v < 0 {
		return 0, fmt.Errorf("%w: line %d: %s %d is negative", ErrFormat, ln, what, v)
	}
	return int(v), nil
}

// lineReader tracks 1-based line numbers so parse errors can point at the
// offending input line.
type lineReader struct {
	br *bufio.Reader
	ln int
}

// read returns the next raw line (advancing the line counter).
func (r *lineReader) read() (string, error) {
	line, err := r.br.ReadString('\n')
	if line != "" {
		r.ln++
	}
	return line, err
}

// nextData returns the next non-comment, non-blank line and its number.
func (r *lineReader) nextData() (string, int, error) {
	for {
		line, err := r.read()
		trimmed := strings.TrimSpace(line)
		if trimmed != "" && !strings.HasPrefix(trimmed, "%") {
			return trimmed, r.ln, nil
		}
		if err != nil {
			return "", r.ln, io.ErrUnexpectedEOF
		}
	}
}
