package grb

import (
	"testing"

	"lagraph/internal/loccount"
)

// grbLineBudget is the package's size as loccount counts it (non-blank,
// non-comment lines of the non-test files, the convention of Table II).
// Every route the package adds is a code path the conformance suites must
// cover, so the count only rises with a claim that paid for the lines
// (CONTRIBUTING.md, rule 12).
const grbLineBudget = 5278

// TestGrbLineBudget fails when the package outgrows its budget. `go run
// ./cmd/loc -dir internal/grb -files` shows which file grew.
func TestGrbLineBudget(t *testing.T) {
	_, files, err := loccount.CountDir(".")
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range files {
		total += n
	}
	if total > grbLineBudget {
		t.Errorf("internal/grb counts %d lines, over its budget of %d", total, grbLineBudget)
	}
}
