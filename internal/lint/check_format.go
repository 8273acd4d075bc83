package lint

import (
	"go/ast"
)

// formatInvariantsCheck enforces the storage-format abstraction: with
// multiple runtime formats (standard CSR, hypersparse, the dense bitmap
// view) hanging off one Matrix, the raw storage fields csr/csc/bmp are
// coherent only through the dispatch accessors — materializedCSR,
// materializedCSC, bitmapView, cachedBitmap — which complete pending
// work, take the cache mutexes, and honor the configured format. A direct
// field read anywhere else sees whichever representation happened to be
// cached last and silently breaks the formats-are-interchangeable
// contract the conformance tests pin.
//
// Unlike pending-tuples (positional, exported functions only), this check
// is unconditional and covers every function: even after a Wait, raw
// field access bypasses the format dispatch. Writes are exempt — cache
// invalidation (a.bmp = nil) and storage replacement are how mutation
// sites participate in the protocol — as are the accessors and format
// machinery themselves, listed in formatExempt.
func formatInvariantsCheck() *Check {
	return &Check{
		Name: "format-invariants",
		Doc:  "reads of Matrix storage fields must go through the format-dispatch accessors",
		Applies: func(p *Package) bool {
			return p.Name == "grb"
		},
		Run: runFormatInvariants,
	}
}

// formatFields are the Matrix storage fields owned by the format layer.
var formatFields = map[string]bool{
	"csr": true,
	"csc": true,
	"bmp": true,
}

// formatExempt lists the functions that ARE the format layer: accessors,
// converters, the assembler, and the element-level mutators that operate
// on canonical storage and invalidate the caches themselves.
var formatExempt = map[string]bool{
	// Accessors: the blessed ways in.
	"materializedCSR": true,
	"materializedCSC": true,
	"Materialize":     true,
	"bitmapView":      true,
	"bitmapWanted":    true,
	"cachedBitmap":    true,
	"orientedCSR":     true,
	"orientedCSC":     true,
	// Format management and assembly.
	"Wait":               true,
	"assemble":           true,
	"maybeConvertFormat": true,
	"SetFormat":          true,
	"Clear":              true,
	"Dup":                true,
	// Element-level mutators: flip zombies / buffer tuples against the
	// canonical storage and reset the caches in the same breath.
	"SetElement":    true,
	"accumElement":  true,
	"RemoveElement": true,
}

func runFormatInvariants(p *Package, r *Reporter) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || formatExempt[fd.Name.Name] {
				continue
			}
			writes := writeTargets(fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if writes[sel] {
					return true
				}
				if !formatFields[sel.Sel.Name] {
					return true
				}
				if namedRecvType(p, sel) != "Matrix" {
					return true
				}
				r.Reportf(sel.Pos(),
					"%s reads Matrix.%s directly; use the format-dispatch accessor (materializedCSR/materializedCSC/bitmapView/cachedBitmap)",
					fd.Name.Name, sel.Sel.Name)
				return true
			})
		}
	}
}
