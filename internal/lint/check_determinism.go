package lint

import (
	"go/ast"
	"go/types"
)

// determinismCheck flags `for range` iteration over a map whose loop body
// has effects that can escape the loop — appending to or writing through
// outer variables, writing through pointers/indices/fields, or calling
// functions. Go randomizes map iteration order per run, and PR 1's
// contract is stronger still: results must be bitwise identical at any
// SetParallelism level, so no output may ever be derived from map order.
//
// The one admitted idiom is sorted-key iteration's first half — a loop
// body consisting solely of `keys = append(keys, k)` — because collecting
// keys commutes; the caller is expected to sort before use. Anything else
// needs a sorted-key rewrite or a justified //grblint:ignore determinism.
func determinismCheck() *Check {
	kernelPkgs := map[string]bool{"grb": true, "ref": true, "lagraph": true}
	return &Check{
		Name: "determinism",
		Applies: func(p *Package) bool {
			return kernelPkgs[p.Name]
		},
		Run: runDeterminism,
	}
}

func runDeterminism(p *Package, r *Reporter) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := p.Info.Types[rs.X]
			if !ok || tv.Type == nil {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			if isKeyCollectionLoop(rs) {
				return true
			}
			if effect := findLoopEffect(p, rs); effect != nil {
				pos := p.Fset.Position(effect.Pos())
				r.Reportf(rs.For,
					"map iteration order is random but the loop body has an effect outside the loop (line %d); iterate sorted keys instead",
					pos.Line)
			}
			return true
		})
	}
}

// isKeyCollectionLoop recognizes `for k := range m { keys = append(keys, k) }`:
// the safe first half of the sorted-key idiom.
func isKeyCollectionLoop(rs *ast.RangeStmt) bool {
	key, ok := rs.Key.(*ast.Ident)
	if !ok || key.Name == "_" {
		return false
	}
	if rs.Value != nil {
		if v, ok := rs.Value.(*ast.Ident); !ok || v.Name != "_" {
			return false
		}
	}
	if len(rs.Body.List) != 1 {
		return false
	}
	as, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	dst, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "append" {
		return false
	}
	slice, ok := call.Args[0].(*ast.Ident)
	if !ok || slice.Name != dst.Name {
		return false
	}
	arg, ok := call.Args[1].(*ast.Ident)
	return ok && arg.Name == key.Name
}

// findLoopEffect returns the first node in the loop body whose effect can
// escape the loop (and hence depend on iteration order), or nil if the
// body is confined to loop-local state.
func findLoopEffect(p *Package, rs *ast.RangeStmt) ast.Node {
	var found ast.Node
	local := func(id *ast.Ident) bool {
		obj := p.Info.ObjectOf(id)
		if obj == nil {
			return false // unresolved: assume outer, stay conservative
		}
		return obj.Pos() >= rs.Pos() && obj.Pos() < rs.End()
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			// Conversions and pure builtins are effect-free; any other
			// call may publish the current element somewhere.
			if tv, ok := p.Info.Types[n.Fun]; ok && tv.IsType() {
				return true
			}
			if id, ok := n.Fun.(*ast.Ident); ok {
				if b, ok := p.Info.ObjectOf(id).(*types.Builtin); ok {
					switch b.Name() {
					case "len", "cap", "make", "new", "min", "max", "delete", "append":
						// append's effect is caught via its assignment LHS.
						return true
					}
				}
			}
			found = n
			return false
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				switch lhs := lhs.(type) {
				case *ast.Ident:
					if lhs.Name == "_" {
						continue
					}
					if p.Info.Defs[lhs] != nil {
						continue // fresh := declaration, loop-local
					}
					if !local(lhs) {
						found = n
						return false
					}
				default:
					// Index, selector, or dereference target: a write
					// through memory visible outside the loop.
					found = n
					return false
				}
			}
		case *ast.IncDecStmt:
			if id, ok := n.X.(*ast.Ident); !ok || !local(id) {
				found = n
				return false
			}
		case *ast.SendStmt, *ast.GoStmt, *ast.DeferStmt:
			found = n
			return false
		}
		return true
	})
	return found
}
