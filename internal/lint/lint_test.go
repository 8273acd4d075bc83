package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The loader is shared across every test in this package: NewLoader
// re-type-checks the standard library and the module from source, which
// dominates the test binary's runtime, while Loader.cache makes repeat
// LoadDir calls free. One loader instead of one per test cuts the
// package's test time roughly in half.
var (
	loaderOnce sync.Once
	loaderVal  *Loader
	loaderErr  error
)

func sharedLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() { loaderVal, loaderErr = NewLoader(".") })
	if loaderErr != nil {
		t.Fatal(loaderErr)
	}
	return loaderVal
}

// wantRe marks an expected diagnostic in a fixture: `// WANT <check>` on
// the line the diagnostic must be reported at.
var wantRe = regexp.MustCompile(`// WANT ([a-z][a-z0-9-]*)`)

// fixtureWants scans a fixture directory for WANT markers.
func fixtureWants(t *testing.T, dir string) map[string]bool {
	t.Helper()
	want := map[string]bool{}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			t.Logf("skipping %s", e.Name())
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for ln, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				want[fmt.Sprintf("%s:%d:%s", e.Name(), ln+1, m[1])] = true
			}
		}
	}
	return want
}

// TestFixtures runs the whole suite over each fixture package and
// compares the surviving diagnostics against the WANT markers. This
// covers, per check, at least one caught violation, at least one clean
// pass, and the //grblint:ignore suppression path (fixture sites that
// carry a directive have no WANT marker and must stay silent).
func TestFixtures(t *testing.T) {
	loader := sharedLoader(t)
	fixtures := []string{
		"determinism", "pending", "atomicfields", "purity", "errdiscipline", "format",
		"lockdiscipline", "lockorder", "goroutine", "ctxplumb",
		"allocbounds", "deprecated",
	}
	for _, name := range fixtures {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join("testdata", name)
			pkg, err := loader.LoadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			want := fixtureWants(t, dir)
			if len(want) == 0 {
				t.Fatalf("fixture %s has no WANT markers", name)
			}
			got := map[string]bool{}
			for _, d := range RunChecks(pkg) {
				got[fmt.Sprintf("%s:%d:%s", filepath.Base(d.File), d.Line, d.Check)] = true
			}
			for k := range want {
				if !got[k] {
					t.Errorf("missing diagnostic %s", k)
				}
			}
			for k := range got {
				if !want[k] {
					t.Errorf("unexpected diagnostic %s", k)
				}
			}
		})
	}
}

// TestCheckMetadata keeps the registry well-formed: unique kebab-case
// names (the names are load-bearing — they appear in ignore directives).
func TestCheckMetadata(t *testing.T) {
	seen := map[string]bool{}
	nameRe := regexp.MustCompile(`^[a-z][a-z0-9-]*$`)
	for _, c := range Checks() {
		if !nameRe.MatchString(c.Name) {
			t.Errorf("check name %q is not kebab-case", c.Name)
		}
		if seen[c.Name] {
			t.Errorf("duplicate check name %q", c.Name)
		}
		seen[c.Name] = true
		if c.Run == nil {
			t.Errorf("check %q has no run function", c.Name)
		}
	}
	if len(seen) < 10 {
		t.Fatalf("suite has %d checks, want at least 10", len(seen))
	}
}

// TestIgnoreJustification pins the bare-directive contract: a legacy
// //grblint:ignore with no reason still suppresses its finding (so
// adopting the rule cannot break a build mid-migration) but is itself
// reported as ignore-justification.
func TestIgnoreJustification(t *testing.T) {
	loader := sharedLoader(t)
	pkg, err := loader.LoadDir(filepath.Join("testdata", "bareignore"))
	if err != nil {
		t.Fatal(err)
	}
	diags := RunChecks(pkg)
	if len(diags) != 1 {
		t.Fatalf("want exactly the justification diagnostic, got %v", diags)
	}
	if diags[0].Check != "ignore-justification" {
		t.Fatalf("want ignore-justification, got %s", diags[0].Check)
	}
	if !strings.Contains(diags[0].Message, "goroutine-lifecycle") {
		t.Errorf("diagnostic should name the suppressed check: %s", diags[0].Message)
	}
}

// TestIgnoresInventory covers the inventory TestRepoClean logs: every
// directive comes back with its position, check list, and reason.
func TestIgnoresInventory(t *testing.T) {
	loader := sharedLoader(t)
	pkg, err := loader.LoadDir(filepath.Join("testdata", "goroutine"))
	if err != nil {
		t.Fatal(err)
	}
	dirs := Ignores(pkg)
	if len(dirs) != 1 {
		t.Fatalf("want 1 directive in goroutine fixture, got %v", dirs)
	}
	d := dirs[0]
	if len(d.Checks) != 1 || d.Checks[0] != "goroutine-lifecycle" {
		t.Errorf("checks = %v, want [goroutine-lifecycle]", d.Checks)
	}
	if d.Reason == "" || !strings.Contains(d.Reason, "Shutdown") {
		t.Errorf("reason = %q, want the justification text", d.Reason)
	}
	if d.Line == 0 || filepath.Base(d.File) != "fixture.go" {
		t.Errorf("directive position not captured: %+v", d)
	}

	bare, err := loader.LoadDir(filepath.Join("testdata", "bareignore"))
	if err != nil {
		t.Fatal(err)
	}
	bd := Ignores(bare)
	if len(bd) != 1 || bd[0].Reason != "" {
		t.Fatalf("bareignore: want 1 directive with empty reason, got %v", bd)
	}
}

// TestLoadDirTypeError pins that a package which does not type-check is
// a load error, so no check ever runs on partial type information.
func TestLoadDirTypeError(t *testing.T) {
	_, err := sharedLoader(t).LoadDir(filepath.Join("testdata", "typeerror"))
	if err == nil || !strings.Contains(err.Error(), "fixture.go") {
		t.Fatalf("LoadDir on a package that does not type-check: err = %v, want the positioned type error", err)
	}
}

// TestRepoClean is the invariant gate: every check must be clean over
// every package of the module, bench/e2e included, one subtest per
// package. Each ignore directive is logged with its reason, so
// `go test -v -run TestRepoClean ./internal/lint` is the inventory of
// every suppression.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	loader := sharedLoader(t)
	dirs, err := loader.packageDirs()
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) < 5 {
		t.Fatalf("expected to find the module's packages, got %v", dirs)
	}
	for _, dir := range dirs {
		rel, err := filepath.Rel(loader.ModuleRoot, dir)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(filepath.ToSlash(rel), func(t *testing.T) {
			pkg, err := loader.LoadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, ig := range Ignores(pkg) {
				t.Logf("%s:%d: ignore %s: %s", ig.File, ig.Line, strings.Join(ig.Checks, ","), ig.Reason)
			}
			for _, d := range RunChecks(pkg) {
				t.Errorf("%s", d)
			}
		})
	}
}
