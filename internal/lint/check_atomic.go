package lint

import (
	"go/ast"
	"go/types"
)

// atomicFieldsCheck bans the package-level functions of sync/atomic
// (atomic.AddInt64, atomic.LoadPointer, …). They operate on a plain
// variable, so nothing stops another site from reading or writing the
// same variable without them — the `workers`-field class of data race,
// which the race detector only catches when the interleaving happens.
// The typed atomics (atomic.Int64, atomic.Pointer[T], …) are safe by
// construction: their value cannot be reached except through their
// methods. Every atomic in the repository is typed; this keeps it so.
func atomicFieldsCheck() *Check {
	return &Check{
		Name:    "atomic-fields",
		Applies: func(p *Package) bool { return true },
		Run:     runAtomicFields,
	}
}

func runAtomicFields(p *Package, r *Reporter) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
			if ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" && fn.Type().(*types.Signature).Recv() == nil {
				r.Reportf(sel.Pos(),
					"atomic.%s works on a plain variable that other sites can access plainly; declare it as a typed atomic (atomic.Int64, atomic.Pointer[T], …) instead",
					fn.Name())
			}
			return true
		})
	}
}
