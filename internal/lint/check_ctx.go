package lint

import (
	"go/ast"
	"go/types"
)

// contextPlumbingCheck enforces the repo's cancellation discipline below
// cmd/: deadlines and cancellation must flow from the caller, not be
// minted or squirreled away by library code, kernel packages included.
// Three rules:
//
//   - no context.Background()/context.TODO() outside package main — a
//     library that mints its own root context silently detaches work from
//     request cancellation (the svc admission path relies on every kernel
//     call being cancelable from the handler's r.Context());
//   - a function that takes a context.Context takes it as the first
//     parameter, per Go convention, so call sites read uniformly;
//   - context.Context is never stored, in a struct field or a package
//     variable — contexts are call-scoped, not object-scoped, and a
//     stored one turns a pure function of its operands into a function
//     of ambient state; the single blessed exception is Options.Ctx, the
//     public API's explicit execution-scope knob.
func contextPlumbingCheck() *Check {
	return &Check{
		Name: "context-plumbing",
		Applies: func(p *Package) bool {
			return p.Name != "main"
		},
		Run: runContextPlumbing,
	}
}

func runContextPlumbing(p *Package, r *Reporter) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				obj := p.Info.Uses[sel.Sel]
				if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "context" {
					return true
				}
				if obj.Name() == "Background" || obj.Name() == "TODO" {
					r.Reportf(n.Pos(),
						"context.%s in library code detaches work from caller cancellation; accept a ctx parameter and plumb it down", obj.Name())
				}
			case *ast.FuncDecl:
				checkCtxPosition(p, r, n)
			case *ast.StructType:
				checkCtxFields(p, r, f, n)
			}
			return true
		})
	}
	scope := p.Types.Scope()
	for _, name := range scope.Names() {
		if v, ok := scope.Lookup(name).(*types.Var); ok && v.Type().String() == "context.Context" {
			r.Reportf(v.Pos(),
				"package variable %s stores a context.Context; contexts are call-scoped — pass ctx per call instead", name)
		}
	}
}

// checkCtxPosition flags a context.Context parameter that is not first.
func checkCtxPosition(p *Package, r *Reporter, fd *ast.FuncDecl) {
	if fd.Type.Params == nil {
		return
	}
	pos := 0
	for _, field := range fd.Type.Params.List {
		isCtx := isContextExpr(p, field.Type)
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		if isCtx && pos > 0 {
			r.Reportf(field.Pos(),
				"%s takes context.Context at parameter %d; ctx must be the first parameter", fd.Name.Name, pos+1)
			return
		}
		pos += n
	}
}

// checkCtxFields flags struct fields of type context.Context, excepting
// the public Options.Ctx execution-scope knob.
func checkCtxFields(p *Package, r *Reporter, f *ast.File, st *ast.StructType) {
	structName := enclosingTypeName(f, st)
	for _, field := range st.Fields.List {
		if !isContextExpr(p, field.Type) {
			continue
		}
		exempt := structName == "Options" && len(field.Names) == 1 && field.Names[0].Name == "Ctx"
		if exempt {
			continue
		}
		r.Reportf(field.Pos(),
			"struct %s stores a context.Context; contexts are call-scoped — pass ctx per call instead", structName)
	}
}

// enclosingTypeName finds the TypeSpec name a struct literal belongs to,
// or "" for anonymous structs.
func enclosingTypeName(f *ast.File, st *ast.StructType) string {
	name := ""
	ast.Inspect(f, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok {
			return true
		}
		if ts.Type == st {
			name = ts.Name.Name
			return false
		}
		return true
	})
	return name
}
