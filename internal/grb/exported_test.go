package grb

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestExportedSurface pins the package's exported identifiers to
// testdata/exported.txt, one sorted "kind name" line each (methods as
// Type.Method), so a new exported knob or entry point shows up in review as
// a line added to that file.
func TestExportedSurface(t *testing.T) {
	got := exportedSurface(t)
	raw, err := os.ReadFile(filepath.Join("testdata", "exported.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	var added, removed []string
	for _, l := range got {
		if !slices.Contains(want, l) {
			added = append(added, l)
		}
	}
	for _, l := range want {
		if !slices.Contains(got, l) {
			removed = append(removed, l)
		}
	}
	if len(added)+len(removed) > 0 {
		t.Errorf("exported surface differs from testdata/exported.txt\nnot in the file: %q\nno longer exported: %q\nfull listing:\n%s",
			added, removed, strings.Join(got, "\n"))
	}
}

// exportedSurface parses the package's non-test files and returns its
// exported declarations as sorted "kind name" lines.
func exportedSurface(t *testing.T) []string {
	t.Helper()
	fset := token.NewFileSet()
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					out = append(out, "func "+d.Name.Name)
				} else if recv := receiverType(d.Recv.List[0].Type); ast.IsExported(recv) {
					out = append(out, "method "+recv+"."+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							out = append(out, "type "+s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								out = append(out, d.Tok.String()+" "+n.Name)
							}
						}
					}
				}
			}
		}
	}
	slices.Sort(out)
	return out
}

// receiverType strips pointers and type parameters off a method receiver.
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
