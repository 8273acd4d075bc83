package lint

import (
	"go/ast"
	"strconv"
	"strings"
)

// kernelPurityCheck keeps the kernel packages (grb and its dense
// reference mimic) pure: no wall-clock reads, no randomness, no process
// environment, no networking, no printing to stdout. Kernels must be
// deterministic functions of their operands — that is what makes the
// conformance methodology (fast kernel vs dense mimic, §II-A) and the
// cross-parallelism bitwise tests meaningful. Timing belongs in
// benchmarks, randomness in internal/gen, I/O in cmd/, HTTP in
// internal/svc. The context package is not banned: a kernel may check a
// caller's ctx parameter between chunks of work, and context-plumbing
// keeps it from storing one.
//
// The one sanctioned timing route is the observability seam: kernels may
// import lagraph/internal/obs and read the clock through an injected
// Observer's Now() method. The seam keeps the purity guarantee intact —
// with no observer installed the kernel never reads a clock, and the
// timestamps an observer records never feed back into kernel results.
// Calling the package-level obs.Clock() directly is still banned: that is
// an unconditional clock read, indistinguishable from importing time.
func kernelPurityCheck() *Check {
	kernelPkgs := map[string]bool{"grb": true, "ref": true}
	return &Check{
		Name: "kernel-purity",
		Applies: func(p *Package) bool {
			return kernelPkgs[p.Name]
		},
		Run: runKernelPurity,
	}
}

// impureImports are packages kernel code must not import at all.
var impureImports = map[string]string{
	"time":         "wall-clock access makes kernel behaviour timing-dependent",
	"math/rand":    "randomness breaks kernel determinism",
	"math/rand/v2": "randomness breaks kernel determinism",
	"os":           "kernels must not touch the process environment",
	"net":          "kernels must not talk to the network; service code lives in internal/svc",
	"net/http":     "kernels must not talk to the network; service code lives in internal/svc",
}

// clockSeamImports are module-internal packages kernel code may import even
// though they wrap a clock: the import is the injected-clock seam, not a
// clock read. Direct calls to the seam's package-level clock are still
// flagged (see runKernelPurity).
var clockSeamImports = map[string]bool{
	"lagraph/internal/obs": true,
}

func runKernelPurity(p *Package, r *Reporter) {
	for _, f := range p.Files {
		// The local name each impure or print-capable package is bound to.
		fmtName := ""
		obsName := ""
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			name := ""
			if imp.Name != nil {
				name = imp.Name.Name
			}
			if reason, bad := impureImports[path]; bad {
				r.Reportf(imp.Pos(), "kernel code must not import %q: %s", path, reason)
				continue
			}
			if clockSeamImports[path] {
				// Allowed: the injected-clock seam. Track the local name so
				// direct package-level clock calls can still be flagged.
				obsName = path[strings.LastIndex(path, "/")+1:]
				if name != "" {
					obsName = name
				}
			}
			if path == "fmt" {
				fmtName = "fmt"
				if name != "" {
					fmtName = name
				}
			}
		}
		if (fmtName == "" || fmtName == "_") && (obsName == "" || obsName == "_") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			if id.Name == fmtName && strings.HasPrefix(sel.Sel.Name, "Print") {
				r.Reportf(call.Pos(),
					"kernel code must not print to stdout (%s.%s); return values or errors instead",
					fmtName, sel.Sel.Name)
			}
			if id.Name == obsName && obsName != "" && sel.Sel.Name == "Clock" {
				r.Reportf(call.Pos(),
					"kernel code must not call %s.Clock directly; read time through an injected Observer's Now()",
					obsName)
			}
			return true
		})
	}
}
