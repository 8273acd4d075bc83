package lint

import (
	"go/ast"
)

// formatInvariantsCheck enforces the storage-format abstraction. A Matrix
// holds a compressed form (standard or hypersparse csr, the csc cache) and
// possibly a dense one (bmp); a Vector holds compressed arrays (idx/x) and
// possibly a dense form (dn). Whichever form was written last is
// authoritative and the other may be stale (Matrix.csrStale, Vector.stale
// — a stale compressed form is released, so reading it is a nil
// dereference at best and old data at worst). The raw fields are coherent
// only through the dispatch accessors — materializedCSR, materializedCSC,
// cachedBitmap, rowsRef for a Matrix; materialized, ref and
// settledDense for a Vector — which complete pending work (settledDense:
// refuse while any is outstanding), take the cache mutexes, rebuild
// a stale side and honor the configured format. A direct field read
// anywhere else sees whichever representation happened to be current and
// silently breaks the forms-are-interchangeable contract the conformance
// tests pin.
//
// Unlike pending-tuples (positional, exported functions only), this check
// is unconditional and covers every function: even after a Wait, raw
// field access bypasses the format dispatch. Writes are exempt — cache
// invalidation (a.csc = nil) and storage replacement are how mutation
// sites participate in the protocol — as are the accessors and format
// machinery themselves, listed in formatExempt.
func formatInvariantsCheck() *Check {
	return &Check{
		Name: "format-invariants",
		Applies: func(p *Package) bool {
			return p.Name == "grb"
		},
		Run: runFormatInvariants,
	}
}

// formatFields are the storage fields owned by the format layer, by type.
var formatFields = map[string]map[string]bool{
	"Matrix": {"csr": true, "csc": true, "bmp": true, "csrStale": true},
	"Vector": {"idx": true, "x": true, "dn": true, "stale": true},
}

// formatExempt lists the functions that ARE the format layer: accessors,
// converters, the assembler, and the element-level mutators that operate
// on canonical storage and invalidate the caches themselves.
var formatExempt = map[string]bool{
	// Accessors: the blessed ways in.
	"materializedCSR": true,
	"materializedCSC": true,
	"Materialize":     true,
	"cachedBitmap":    true,
	"orientedCSR":     true,
	"orientedCSC":     true,
	"rowsRef":         true,
	"nvalsSettled":    true,
	"materialized":    true,
	"ref":             true,
	"settledDense":    true,
	// Format management and assembly: the two-form protocol itself.
	"Wait":          true,
	"settle":        true,
	"assemble":      true,
	"normalizeCSR":  true,
	"setCSR":        true,
	"markCSRStale":  true,
	"setSparse":     true,
	"sparseStale":   true,
	"writableDense": true,
	"maybeDemote":   true,
	"dropDense":     true,
	"adoptLanes":    true,
	"Clear":         true,
	"Dup":           true,
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
				recv := namedRecvType(p, sel)
				if !formatFields[recv][sel.Sel.Name] {
					return true
				}
				accessors := "materializedCSR/materializedCSC/cachedBitmap/rowsRef"
				if recv == "Vector" {
					accessors = "materialized/ref/settledDense"
				}
				r.Reportf(sel.Pos(),
					"%s reads %s.%s directly; use the format-dispatch accessor (%s)",
					fd.Name.Name, recv, sel.Sel.Name, accessors)
				return true
			})
		}
	}
}
