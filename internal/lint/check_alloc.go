package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// allocBoundsCheck generalizes the PR 5 frame-decoder hardening into a
// rule: a decoder that reads sizes off the wire or disk must bound them
// before allocating. `make([]Edge, header.NNZ)` with an attacker- or
// corruption-controlled NNZ is a one-line denial of service; the fix —
// compare the size against a limit (or a remaining-bytes budget) first —
// is cheap, so the analyzer insists on it.
//
// Scope: functions whose names mark them as decoders (Read*, Decode*,
// Deserialize*, Parse*, Unmarshal*, case-insensitive on the first rune)
// in the packages that sit on network/disk input. Inside those, every
// make() size/capacity argument and bytes.Buffer.Grow argument must be
// provably bounded: a constant, derived from len/cap/min/max of material
// already in memory, or an expression whose variable leaves were compared
// against something earlier in the function (the validate-then-allocate
// shape). Type conversions are looked through, so `Grow(int(n))` is
// bounded by an earlier `if n < 0 || n > limit` check on n.
func allocBoundsCheck() *Check {
	return &Check{
		Name: "alloc-bounds",
		Applies: func(p *Package) bool {
			switch p.Name {
			case "grb", "store", "svc", "mmio", "lagraph", "wal":
				return true
			}
			return false
		},
		Run: runAllocBounds,
	}
}

// decoderName reports whether a function name marks a decoding entry
// point.
func decoderName(name string) bool {
	for _, prefix := range []string{"Read", "read", "Decode", "decode", "Deserialize", "deserialize", "Parse", "parse", "Unmarshal", "unmarshal"} {
		if len(name) >= len(prefix) && name[:len(prefix)] == prefix {
			return true
		}
	}
	return false
}

func runAllocBounds(p *Package, r *Reporter) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !decoderName(fd.Name.Name) {
				continue
			}
			compared := comparedExprs(p, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				var sizes []ast.Expr
				switch {
				case isMakeCall(call):
					// make(T, n[, c]) — slice/map only; channel buffers are
					// small by construction here and out of scope.
					if len(call.Args) < 2 || isChanType(p, call.Args[0]) {
						return true
					}
					sizes = call.Args[1:]
				case isGrowCall(call):
					sizes = call.Args[:1]
				default:
					return true
				}
				for _, size := range sizes {
					if leaf, ok := unboundedLeaf(p, size, compared, call.Pos()); !ok {
						r.Reportf(call.Pos(),
							"%s allocates with unbounded size %s; compare it against a limit before allocating",
							fd.Name.Name, leaf)
					}
				}
				return true
			})
		}
	}
}

// comparedExprs collects the source form (types.ExprString) of every
// operand of a comparison in the body, with the position of the
// comparison; an allocation is bounded by comparisons that precede it.
func comparedExprs(p *Package, body *ast.BlockStmt) map[string]token.Pos {
	out := map[string]token.Pos{}
	record := func(e ast.Expr, pos token.Pos) {
		e = stripConversions(p, e)
		s := types.ExprString(e)
		if prev, ok := out[s]; !ok || pos < prev {
			out[s] = pos
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			switch n.Op {
			case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
				record(n.X, n.Pos())
				record(n.Y, n.Pos())
			}
		case *ast.SwitchStmt:
			if n.Tag != nil {
				record(n.Tag, n.Pos())
			}
		}
		return true
	})
	return out
}

// unboundedLeaf walks a size expression; it returns ("", true) when every
// variable leaf is bounded, else the first unbounded leaf's source form.
func unboundedLeaf(p *Package, e ast.Expr, compared map[string]token.Pos, at token.Pos) (string, bool) {
	e = stripConversions(p, e)
	// Compile-time constants are bounded by definition.
	if tv, ok := p.Info.Types[e]; ok && tv.Value != nil {
		return "", true
	}
	switch e := e.(type) {
	case *ast.BinaryExpr:
		if leaf, ok := unboundedLeaf(p, e.X, compared, at); !ok {
			return leaf, false
		}
		return unboundedLeaf(p, e.Y, compared, at)
	case *ast.CallExpr:
		// len/cap/min/max of in-memory material is inherently bounded.
		if id, ok := e.Fun.(*ast.Ident); ok {
			switch id.Name {
			case "len", "cap", "min", "max":
				return "", true
			}
		}
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr:
		s := types.ExprString(e)
		if pos, ok := compared[s]; ok && pos < at {
			return "", true
		}
		return s, false
	}
	// Anything structurally unexpected: conservative, call it unbounded.
	return types.ExprString(e), false
}

// stripConversions unwraps parens and type conversions: int(n) → n.
func stripConversions(p *Package, e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.CallExpr:
			if len(x.Args) == 1 {
				if tv, ok := p.Info.Types[x.Fun]; ok && tv.IsType() {
					e = x.Args[0]
					continue
				}
			}
			return e
		default:
			return e
		}
	}
}

// isMakeCall reports a builtin make() call.
func isMakeCall(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "make"
}

// isGrowCall reports a bytes.Buffer Grow call.
func isGrowCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Grow" && len(call.Args) == 1
}

// isChanType reports whether the type expression denotes a channel.
func isChanType(p *Package, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}
