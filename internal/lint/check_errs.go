package lint

import (
	"go/ast"
	"go/types"
)

// errorDisciplineCheck forbids silently dropping error returns inside the
// algorithm package: every grb API call there reports structural failures
// (dimension mismatch, uninitialized operands) through its error, and an
// algorithm that drops one keeps computing on garbage. A call used as a
// bare expression statement is flagged; assigning to the blank identifier
// (`_ = v.SetElement(...)`) is accepted as an explicit, greppable
// statement that the error is impossible at this site.
//
// The package's try/catch pair is checked too. try hands an error to the
// enclosing function's `defer catch(&err)` by panicking, so a try is
// flagged where no catch of the function's own can recover it:
//
//   - inside a function literal: grb runs the algorithms' closures on its
//     worker goroutines, where a panic is never recovered;
//   - in a go statement, for the same reason;
//   - in a function whose body does not defer catch.
func errorDisciplineCheck() *Check {
	return &Check{
		Name: "error-discipline",
		Applies: func(p *Package) bool {
			return p.Name == "lagraph"
		},
		Run: runErrorDiscipline,
	}
}

func runErrorDiscipline(p *Package, r *Reporter) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			es, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := unparen(es.X).(*ast.CallExpr)
			if !ok {
				return true
			}
			if !returnsError(p, call) {
				return true
			}
			r.Reportf(es.Pos(),
				"error returned by %s is silently discarded; handle it or write an explicit `_ = ...`",
				types.ExprString(call.Fun))
			return true
		})
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkTry(p, r, fd)
			}
		}
	}
}

// checkTry reports the calls of the package's try in fd that no deferred
// catch of fd recovers.
func checkTry(p *Package, r *Reporter, fd *ast.FuncDecl) {
	caught := false
	for _, st := range fd.Body.List {
		if d, ok := st.(*ast.DeferStmt); ok && isPackageFunc(p, d.Call, "catch") {
			caught = true
		}
	}
	// where names the construct a call sits in: "" for fd's own body.
	var walk func(n ast.Node, where string)
	walk = func(n ast.Node, where string) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				if where == "" {
					walk(m.Body, "a function literal")
					return false
				}
			case *ast.GoStmt:
				walk(m.Call, "a go statement")
				return false
			case *ast.CallExpr:
				if !isPackageFunc(p, m, "try") {
					return true
				}
				switch {
				case where != "":
					r.Reportf(m.Pos(), "try in %s: grb may run it on a worker goroutine, where no catch recovers its panic; return the error instead", where)
				case !caught:
					r.Reportf(m.Pos(), "try in %s, which does not defer catch(&err): its panic would escape the function", fd.Name.Name)
				}
			}
			return true
		})
	}
	walk(fd.Body, "")
}

// isPackageFunc reports whether call calls the package-level function name
// of the package under analysis.
func isPackageFunc(p *Package, call *ast.CallExpr, name string) bool {
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	fn, ok := p.Info.Uses[id].(*types.Func)
	return ok && fn.Pkg() == p.Types && fn.Parent() == p.Types.Scope()
}

func unparen(e ast.Expr) ast.Expr {
	for {
		par, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = par.X
	}
}

// returnsError reports whether the call's result type is, or ends with,
// the built-in error type.
func returnsError(p *Package, call *ast.CallExpr) bool {
	tv, ok := p.Info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	var last types.Type
	switch t := tv.Type.(type) {
	case *types.Tuple:
		if t.Len() == 0 {
			return false
		}
		last = t.At(t.Len() - 1).Type()
	default:
		last = t
	}
	named, ok := last.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}
