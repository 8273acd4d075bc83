// Package lint is the repository's invariant checks: a small,
// stdlib-only (go/parser, go/ast, go/types — no x/tools) suite that
// mechanically enforces the kernel invariants the library's correctness
// argument rests on. The GraphBLAS substrate promises
// bitwise-deterministic results at any parallelism level and a disciplined
// non-blocking execution model; both are properties a reviewer cannot
// reliably police by eye, so they are enforced here instead (in the spirit
// of LAGraph's position that a community algorithm collection needs
// mechanically-checked correctness discipline). The one runner is
// TestRepoClean, which checks every package of the module under
// `go test ./...`.
//
// Diagnostics may be suppressed site-by-site with a trailing or preceding
// comment of the form
//
//	//grblint:ignore <check>[,<check>...]: <reason>
//
// The reason is mandatory: an ignore is a claim ("this map iteration
// never reaches an output path") that the next reader must be able to
// audit, so a directive without one is itself reported as a diagnostic
// (check name "ignore-justification", not suppressible). The colon after
// the check list is accepted but optional — legacy space-separated
// reasons keep working. `go test -v -run TestRepoClean ./internal/lint`
// logs every directive with its reason.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned for file:line:col reporting.
type Diagnostic struct {
	Check   string
	File    string
	Line    int
	Col     int
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.File, d.Line, d.Col, d.Message, d.Check)
}

// Check is one analyzer: a name (used in reports and ignore comments), a
// package predicate, and the analysis itself. The invariant a check
// enforces is its constructor's doc comment.
type Check struct {
	Name string
	// Applies reports whether the check runs on this package at all;
	// checks that guard internals of a specific package key off the
	// package name so they also run against fixture packages in tests.
	Applies func(p *Package) bool
	Run     func(p *Package, r *Reporter)
}

// Reporter accumulates diagnostics for one check over one package.
type Reporter struct {
	pkg   *Package
	check string
	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (r *Reporter) Reportf(pos token.Pos, format string, args ...any) {
	p := r.pkg.Fset.Position(pos)
	r.diags = append(r.diags, Diagnostic{
		Check:   r.check,
		File:    p.Filename,
		Line:    p.Line,
		Col:     p.Column,
		Message: fmt.Sprintf(format, args...),
	})
}

// Checks returns the full suite in reporting order.
func Checks() []*Check {
	return []*Check{
		determinismCheck(),
		pendingTuplesCheck(),
		atomicFieldsCheck(),
		kernelPurityCheck(),
		errorDisciplineCheck(),
		formatInvariantsCheck(),
		lockDisciplineCheck(),
		goroutineLifecycleCheck(),
		contextPlumbingCheck(),
		allocBoundsCheck(),
		deprecationCheck(),
	}
}

// RunChecks runs every check over a package and returns the surviving
// diagnostics, ignore comments applied, sorted by position. Ignore
// directives without a justification are themselves reported (check
// "ignore-justification"): a bare ignore is an unauditable claim.
func RunChecks(p *Package) []Diagnostic {
	directives := Ignores(p)
	ignores := indexIgnores(directives)
	var out []Diagnostic
	for _, c := range Checks() {
		if c.Applies != nil && !c.Applies(p) {
			continue
		}
		r := &Reporter{pkg: p, check: c.Name}
		c.Run(p, r)
		for _, d := range r.diags {
			if ignores.suppressed(d) {
				continue
			}
			out = append(out, d)
		}
	}
	for _, dir := range directives {
		if dir.Reason == "" {
			out = append(out, Diagnostic{
				Check: "ignore-justification",
				File:  dir.File, Line: dir.Line, Col: dir.Col,
				Message: fmt.Sprintf("ignore directive for %s has no justification; write //grblint:ignore %s: <reason>",
					strings.Join(dir.Checks, ","), strings.Join(dir.Checks, ",")),
			})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].File != out[b].File {
			return out[a].File < out[b].File
		}
		if out[a].Line != out[b].Line {
			return out[a].Line < out[b].Line
		}
		if out[a].Col != out[b].Col {
			return out[a].Col < out[b].Col
		}
		return out[a].Check < out[b].Check
	})
	return out
}

// ignoreRe matches the directive comment: the comma-joined check list,
// an optional colon, then the free-text justification. Anchored to the
// start of the comment so prose that merely *mentions* the grammar
// (e.g. this package's own doc comments) neither suppresses anything
// nor pollutes the inventory TestRepoClean logs.
var ignoreRe = regexp.MustCompile(`^//grblint:ignore\s+([a-z][a-z0-9-]*(?:,[a-z][a-z0-9-]*)*):?\s*(.*)`)

// IgnoreDirective is one //grblint:ignore comment, positioned for the
// inventory TestRepoClean logs and for justification enforcement.
type IgnoreDirective struct {
	File   string
	Line   int
	Col    int
	Checks []string
	Reason string
}

// Ignores scans every comment of the package for ignore directives, in
// position order.
func Ignores(p *Package) []IgnoreDirective {
	var out []IgnoreDirective
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				out = append(out, IgnoreDirective{
					File: pos.Filename, Line: pos.Line, Col: pos.Column,
					Checks: strings.Split(m[1], ","),
					Reason: strings.TrimSpace(m[2]),
				})
			}
		}
	}
	return out
}

// ignoreIndex records, per file and line, which checks are suppressed.
type ignoreIndex map[string]map[int]map[string]bool

func (ix ignoreIndex) suppressed(d Diagnostic) bool {
	lines := ix[d.File]
	if lines == nil {
		return false
	}
	set := lines[d.Line]
	return set != nil && (set[d.Check] || set["all"])
}

// indexIgnores builds the suppression index. A directive applies to its
// own line (trailing comment) and to the following line (standalone
// comment above the flagged statement).
func indexIgnores(directives []IgnoreDirective) ignoreIndex {
	ix := ignoreIndex{}
	add := func(file string, line int, check string) {
		if ix[file] == nil {
			ix[file] = map[int]map[string]bool{}
		}
		if ix[file][line] == nil {
			ix[file][line] = map[string]bool{}
		}
		ix[file][line][check] = true
	}
	for _, dir := range directives {
		for _, name := range dir.Checks {
			add(dir.File, dir.Line, name)
			add(dir.File, dir.Line+1, name)
		}
	}
	return ix
}

// exportedFuncs yields every exported function or method declaration with
// a body, in file order.
func exportedFuncs(p *Package, fn func(decl *ast.FuncDecl)) {
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			fn(fd)
		}
	}
}
