package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// Package is one loaded, type-checked package: the unit every check runs
// over. A package that does not type-check is a load error, so every
// check runs on complete type information.
type Package struct {
	Path  string // import path ("lagraph/internal/grb")
	Name  string // package name ("grb")
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of one module. Module-internal
// imports are resolved by the loader itself (parsing from source,
// memoized); everything else — the standard library — is delegated to the
// stdlib source importer, keeping the whole pipeline free of x/tools and
// of compiled export data.
type Loader struct {
	Fset       *token.FileSet
	ModuleRoot string
	ModulePath string

	std   types.ImporterFrom
	cache map[string]*Package
	stack map[string]bool // import-cycle guard
}

// NewLoader locates the enclosing module of dir (by walking up to go.mod)
// and returns a loader rooted there.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("no go.mod found above %s", abs)
		}
		root = parent
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	l := &Loader{
		Fset:       fset,
		ModuleRoot: root,
		ModulePath: modPath,
		cache:      map[string]*Package{},
		stack:      map[string]bool{},
	}
	if src, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom); ok {
		l.std = src
	}
	return l, nil
}

// modulePath extracts the module directive from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module directive", gomod)
}

// packageDirs lists every directory under the module root that holds a
// package, in lexical order. Directories named testdata or vendor, and
// hidden ones, are skipped, mirroring the go tool; a nested module such
// as bench/e2e is walked like any other directory.
func (l *Loader) packageDirs() ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(l.ModuleRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != l.ModuleRoot && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			return true
		}
	}
	return false
}

// LoadDir parses and type-checks the package in dir, and returns the
// first parse or type error. Test files (*_test.go) are excluded: every
// invariant the checks enforce is about shipped code, and test packages
// may deliberately exercise the forbidden patterns.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(l.ModuleRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("%s: outside module %s", dir, l.ModulePath)
	}
	path := l.ModulePath
	if rel != "." {
		path = l.ModulePath + "/" + filepath.ToSlash(rel)
	}
	return l.load(path, abs)
}

func (l *Loader) load(path, dir string) (*Package, error) {
	if p, ok := l.cache[path]; ok {
		return p, nil
	}
	if l.stack[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.stack[path] = true
	defer delete(l.stack, path)

	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no Go files", dir)
	}

	p := &Package{
		Path:  path,
		Name:  files[0].Name.Name,
		Dir:   dir,
		Fset:  l.Fset,
		Files: files,
		Info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	conf := types.Config{Importer: &loaderImporter{l: l}}
	tpkg, err := conf.Check(path, l.Fset, files, p.Info)
	if err != nil {
		return nil, err
	}
	p.Types = tpkg
	l.cache[path] = p
	return p, nil
}

// loaderImporter routes module-internal imports to the loader and
// everything else to the standard library source importer.
type loaderImporter struct {
	l *Loader
}

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	return li.ImportFrom(path, li.l.ModuleRoot, 0)
}

func (li *loaderImporter) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	l := li.l
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
		p, err := l.load(path, filepath.Join(l.ModuleRoot, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	if l.std == nil {
		return nil, fmt.Errorf("no standard-library importer available for %q", path)
	}
	return l.std.ImportFrom(path, srcDir, mode)
}
