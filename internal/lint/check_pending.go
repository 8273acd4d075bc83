package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// pendingTuplesCheck enforces the non-blocking execution model's reading
// rule: an exported Matrix/Vector operation must complete pending work
// (Wait, settle, or one of the accessors that call them) before it reads
// storage internals. Pending tuples and zombies make csr/csc/bmp and the
// vector's index/value slices and dense form stale; reading them without
// assembly silently returns pre-update state.
//
// The analysis is positional within one function body: the first read of a
// guarded field must appear after some call to a sanitizing method. That
// is a heuristic — it does not track which operand was waited on — but it
// exactly matches how every kernel in the package is written (sanitize all
// operands up front, then compute).
func pendingTuplesCheck() *Check {
	return &Check{
		Name: "pending-tuples",
		Applies: func(p *Package) bool {
			return p.Name == "grb"
		},
		Run: runPendingTuples,
	}
}

// sanitizers are the methods and helpers that force pending work to
// completion before handing out storage: Wait and settle themselves, the
// materialized*/ref accessors that call them, and the oriented*/rowsRef
// wrappers kernels use to pick a storage orientation (all of which
// settle) — and settledDense, which hands out the dense form only when
// nothing is pending against it.
var sanitizers = map[string]bool{
	"Wait":            true,
	"settle":          true,
	"materialized":    true,
	"ref":             true,
	"settledDense":    true,
	"materializedCSR": true,
	"materializedCSC": true,
	"orientedCSR":     true,
	"orientedCSC":     true,
	"rowsRef":         true,
}

// guardedFields maps a named type to the selector names whose access
// requires prior assembly. For cs this includes the accessor methods,
// since they read p/i/x themselves.
var guardedFields = map[string]map[string]bool{
	"cs": {
		"p": true, "h": true, "i": true, "x": true,
		"nvals": true, "nvecs": true, "vec": true,
		"majorOf": true, "findMajor": true,
	},
	"Matrix": {"csr": true, "csc": true, "bmp": true, "csrStale": true},
	"Vector": {"idx": true, "x": true, "dn": true, "stale": true},
}

// pendingExempt lists exported methods that are themselves part of the
// pending-tuple machinery and so legitimately touch internals.
var pendingExempt = map[string]bool{
	"Wait":  true, // the assembler itself
	"Clear": true, // replaces storage wholesale
}

func runPendingTuples(p *Package, r *Reporter) {
	exportedFuncs(p, func(fd *ast.FuncDecl) {
		if pendingExempt[fd.Name.Name] {
			return
		}
		sanitizedAt := token.Pos(-1)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name := ""
			switch fun := call.Fun.(type) {
			case *ast.SelectorExpr:
				name = fun.Sel.Name
			case *ast.Ident:
				name = fun.Name
			case *ast.IndexExpr:
				// Generic instantiation: orientedCSR[T](a, tran).
				if id, ok := fun.X.(*ast.Ident); ok {
					name = id.Name
				}
			}
			if sanitizers[name] {
				if sanitizedAt == token.Pos(-1) || call.Pos() < sanitizedAt {
					sanitizedAt = call.Pos()
				}
			}
			return true
		})

		writes := writeTargets(fd.Body)
		var flagged bool
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if flagged {
				return false
			}
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if writes[sel] {
				// Pure write target (a.csr = z): not a read of internals.
				return true
			}
			recv := namedRecvType(p, sel)
			if recv == "" || !guardedFields[recv][sel.Sel.Name] {
				return true
			}
			if sanitizedAt != token.Pos(-1) && sanitizedAt < sel.Pos() {
				return true
			}
			flagged = true
			r.Reportf(sel.Pos(),
				"%s reads %s.%s before completing pending work; call Wait (or materialized*) on every operand first",
				fd.Name.Name, recv, sel.Sel.Name)
			return false
		})
	})
}

// writeTargets collects selector expressions that are pure assignment
// targets (the whole LHS of an =), which do not count as reads.
func writeTargets(body *ast.BlockStmt) map[*ast.SelectorExpr]bool {
	out := map[*ast.SelectorExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			if sel, ok := lhs.(*ast.SelectorExpr); ok {
				out[sel] = true
			}
		}
		return true
	})
	return out
}

// namedRecvType returns the name of the named (possibly pointer-wrapped,
// possibly generic) type the selector is rooted at, or "".
func namedRecvType(p *Package, sel *ast.SelectorExpr) string {
	tv, ok := p.Info.Types[sel.X]
	if !ok || tv.Type == nil {
		return ""
	}
	t := tv.Type
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return named.Obj().Name()
}
