// Package loccount counts non-blank, non-comment Go source lines — the
// cloc convention used by Table II of the paper — per function and per
// file, via go/parser, and holds that table's published columns.
package loccount

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

// FuncLoc is the line count of one function body.
type FuncLoc struct {
	File  string
	Name  string
	Lines int
}

// CountDir parses every non-test Go file in dir and returns per-function
// and per-file counts.
func CountDir(dir string) ([]FuncLoc, map[string]int, error) {
	fset := token.NewFileSet()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var funcs []FuncLoc
	fileTotals := map[string]int{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		f, err := parser.ParseFile(fset, path, src, parser.ParseComments)
		if err != nil {
			return nil, nil, err
		}
		lines := strings.Split(string(src), "\n")
		code := codeLines(fset, f, lines)
		total := 0
		for _, isCode := range code {
			if isCode {
				total++
			}
		}
		fileTotals[e.Name()] = total

		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			start := fset.Position(fd.Pos()).Line
			end := fset.Position(fd.Body.End()).Line
			n := 0
			for l := start; l <= end && l <= len(code); l++ {
				if code[l-1] {
					n++
				}
			}
			funcs = append(funcs, FuncLoc{File: e.Name(), Name: fd.Name.Name, Lines: n})
		}
	}
	return funcs, fileTotals, nil
}

// ByName indexes function counts by name.
func ByName(funcs []FuncLoc) map[string]int {
	m := make(map[string]int, len(funcs))
	for _, f := range funcs {
		m[f.Name] = f.Lines
	}
	return m
}

// TableII is the paper's Table II: lines of application code in Ligra,
// GraphIt and GraphBLAS (GraphBLAST), with the internal/lagraph function(s)
// whose count reproduces each row.
var TableII = []struct {
	Alg            string
	Ligra, GraphIt string
	GraphBLAS      int
	Funcs          []string
}{
	{"Breadth-first search", "29", "22", 25, []string{"BFSLevelSimple"}},
	{"Single-source shortest-path", "55", "25", 25, []string{"SSSPBellmanFord"}},
	{"Local graph clustering", "84", "N/A", 45, []string{"LocalCluster"}},
}

// codeLines marks, for each source line, whether it carries code (not
// blank, not wholly comment).
func codeLines(fset *token.FileSet, f *ast.File, lines []string) []bool {
	inComment := make([]bool, len(lines)+1)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			start := fset.Position(c.Pos())
			end := fset.Position(c.End())
			for l := start.Line; l <= end.Line; l++ {
				if l > start.Line && l < end.Line {
					inComment[l] = true
					continue
				}
				text := lines[l-1]
				trimmed := strings.TrimSpace(text)
				if l == start.Line {
					if strings.HasPrefix(trimmed, "//") || strings.HasPrefix(trimmed, "/*") {
						inComment[l] = true
					}
				}
				if l == end.Line && l != start.Line {
					after := text[strings.Index(text, "*/")+2:]
					if strings.TrimSpace(after) == "" {
						inComment[l] = true
					}
				}
			}
		}
	}
	code := make([]bool, len(lines))
	for i, text := range lines {
		t := strings.TrimSpace(text)
		code[i] = t != "" && !inComment[i+1]
	}
	return code
}
