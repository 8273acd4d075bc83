package loccount

import (
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// lineBudgets is every package's size as CountDir counts it (non-blank,
// non-comment lines of the non-test files, the convention of Table II),
// keyed by its directory under the module root. A PR that deletes lines
// lowers its rows; a row rises only with a ROADMAP item that names the
// package (CONTRIBUTING.md, rule 12).
var lineBudgets = map[string]int{
	".":                       64,
	"cmd/lagraph":             395,
	"cmd/lagraphd":            216,
	"cmd/loc":                 50,
	"examples/communities":    108,
	"examples/dnn":            66,
	"examples/pagerank":       45,
	"examples/quickstart":     42,
	"examples/sssp":           60,
	"examples/trianglecensus": 46,
	"internal/baseline":       365,
	"internal/catalog":        394,
	"internal/cluster":        1018,
	"internal/gen":            259,
	"internal/grb":            5350, // MinSecondOf, and the plus/min loops against a right operand of another type (ROADMAP 2(a))
	"internal/grb/ref":        471,
	"internal/lagraph":        2311,
	"internal/leakcheck":      81,
	"internal/lint":           1729,
	"internal/loccount":       113,
	"internal/mmio":           260,
	"internal/obs":            245,
	"internal/store":          928,
	"internal/svc":            1481,
	"internal/wal":            559,
}

// TestLineBudget counts every package of the module (a nested module,
// such as bench/e2e, is not part of it) and fails when one outgrows its
// row, has no row, or a row names no package. `go run ./cmd/loc -dir
// <package> -files` shows which file grew.
func TestLineBudget(t *testing.T) {
	root := filepath.Join("..", "..")
	counts := map[string]int{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != root {
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		_, files, err := CountDir(path)
		if err != nil || len(files) == 0 {
			return err
		}
		rel, err := filepath.Rel(root, path)
		for _, n := range files {
			counts[filepath.ToSlash(rel)] += n
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for pkg := range lineBudgets {
		if _, ok := counts[pkg]; !ok {
			t.Errorf("budget row %q names no package", pkg)
		}
	}
	pkgs := make([]string, 0, len(counts))
	for pkg := range counts {
		pkgs = append(pkgs, pkg)
	}
	slices.Sort(pkgs)
	for _, pkg := range pkgs {
		t.Run(pkg, func(t *testing.T) {
			budget, ok := lineBudgets[pkg]
			switch {
			case !ok:
				t.Errorf("%s counts %d lines and has no budget row", pkg, counts[pkg])
			case counts[pkg] > budget:
				t.Errorf("%s counts %d lines, over its budget of %d", pkg, counts[pkg], budget)
			}
		})
	}
}
