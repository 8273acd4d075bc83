package lagraph_test

// The documentation gate: the prose names files, packages and tests in
// backticks, and a rename or a deletion must not leave it pointing at
// nothing.

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestDocReferences requires every backticked repo path and every
// backticked Test*, Benchmark* or Fuzz* name in README.md, DESIGN.md,
// CONTRIBUTING.md and PAPER_MAP.md to exist.
func TestDocReferences(t *testing.T) {
	tests := declaredTests(t)
	exists := func(path string) bool {
		m, err := filepath.Glob(filepath.FromSlash(path))
		return err == nil && len(m) > 0
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "CONTRIBUTING.md", "PAPER_MAP.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, ref := range staleRefs(string(raw), exists, tests) {
			t.Errorf("%s names `%s`, which does not exist", doc, ref)
		}
	}
}

func TestStaleRefs(t *testing.T) {
	tests := []string{"TestSmoke", "TestRepoClean", "BenchmarkC1_Build"}
	exists := func(path string) bool { return path == "cmd/lagraphd" || path == "internal/lint" }
	doc := "Run `TestSmoke/cluster_replica_killed` in `cmd/lagraphd`; see `internal/lint.TestRepoClean`,\n" +
		"`BenchmarkC1_*`, `<data>/wal`, `/v1/graphs` and `go test -run TestRepoClean ./internal/lint`.\n" +
		"```\ngo run ./cmd/loadgen   # fenced blocks are commands, not references\n```\n" +
		"Gone: `TestSmokeRenamed`, `cmd/loadgen`, `BenchmarkC2_*`, `internal/svc.ValidateMetrics`.\n"
	want := []string{"TestSmokeRenamed", "cmd/loadgen", "BenchmarkC2_*", "internal/svc"}
	if got := staleRefs(doc, exists, tests); !slices.Equal(got, want) {
		t.Errorf("staleRefs = %q, want %q", got, want)
	}
}

var (
	inlineCode = regexp.MustCompile("`([^`\n]+)`")
	testName   = regexp.MustCompile(`^(Test|Benchmark|Fuzz)[A-Z0-9_][\w*]*`)
	testDecl   = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	// rootDirs are the top-level directories a repo path starts with.
	rootDirs = []string{".github", "bench", "cmd", "examples", "internal"}
)

// staleRefs returns the references in the inline code spans of doc that
// name nothing. A reference is a test name (a `/subtest` suffix is
// dropped; a trailing `*` or `_` makes it a prefix) or a path under one
// of rootDirs (`./` and the module's `lagraph/` prefix are dropped, a
// `.Symbol` suffix names a package member, and a `*` globs). Fenced
// blocks hold commands, and are skipped.
func staleRefs(doc string, exists func(path string) bool, tests []string) []string {
	var stale []string
	fenced := false
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if fenced {
			continue
		}
		for _, span := range inlineCode.FindAllStringSubmatch(line, -1) {
			for _, tok := range strings.Fields(span[1]) {
				tok = strings.TrimPrefix(strings.TrimPrefix(tok, "./"), "lagraph/")
				path, name := tok, ""
				if i := strings.Index(tok, ".Test"); i > 0 {
					path, name = tok[:i], tok[i+1:]
				} else if testName.MatchString(tok) {
					path, name = "", tok
				}
				if name != "" && !testExists(testName.FindString(name), tests) {
					stale = append(stale, testName.FindString(name))
				}
				if path = repoPath(path); path != "" && !exists(path) {
					stale = append(stale, path)
				}
			}
		}
	}
	return stale
}

// repoPath returns tok as a path to check, "" when tok is no repo path.
func repoPath(tok string) string {
	first, _, nested := strings.Cut(tok, "/")
	if !nested || !slices.Contains(rootDirs, first) || strings.ContainsAny(tok, "{<") {
		return ""
	}
	tok = strings.TrimSuffix(tok, "/")
	if dot := strings.LastIndex(tok, "."); dot > strings.LastIndex(tok, "/") &&
		dot+1 < len(tok) && tok[dot+1] >= 'A' && tok[dot+1] <= 'Z' {
		tok = tok[:dot]
	}
	return tok
}

func testExists(name string, tests []string) bool {
	if prefix, ok := strings.CutSuffix(name, "*"); ok || strings.HasSuffix(name, "_") {
		return slices.ContainsFunc(tests, func(t string) bool { return strings.HasPrefix(t, prefix) })
	}
	return slices.Contains(tests, name)
}

// declaredTests lists every Test, Benchmark and Fuzz function of the
// repository, the nested bench/e2e module included.
func declaredTests(t *testing.T) []string {
	var names []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range testDecl.FindAllStringSubmatch(string(src), -1) {
			names = append(names, m[1])
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}
