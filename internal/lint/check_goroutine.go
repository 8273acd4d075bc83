package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// goroutineLifecycleCheck demands a provable termination path for every
// `go` statement. The service stack leaks goroutines in exactly three
// shapes — a worker that never learns the server is shutting down, a
// snapshotter ticking forever after its store closed, a feeder blocked on
// a channel nobody drains — and all three are invisible until a soak test
// or a customer incident counts goroutines. A spawn is accepted if any of
// the following holds:
//
//   - the spawned func literal receives from a Done()-style channel
//     (`<-ctx.Done()`, a select case on a stop/done/quit channel), so
//     cancellation reaches it;
//   - the literal runs `defer wg.Done()` on a sync.WaitGroup that the
//     spawning function Waits on, so the spawner's lifetime bounds it;
//   - the literal's body is a single loop draining a channel
//     (`for x := range ch`), which terminates when the producer closes
//     the channel — the worker-pool idiom;
//   - a named function/method is spawned and receives a context.Context
//     argument, delegating the obligation to its own body.
//
// Anything else is flagged. A spawn whose termination argument is real
// but out of scope for these rules (an http.Server goroutine that exits
// when Shutdown closes the listener, say) carries an explicit
// `//grblint:ignore goroutine-lifecycle: <reason>` stating that argument.
func goroutineLifecycleCheck() *Check {
	return &Check{
		Name:    "goroutine-lifecycle",
		Applies: func(p *Package) bool { return true },
		Run:     runGoroutineLifecycle,
	}
}

func runGoroutineLifecycle(p *Package, r *Reporter) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				if goTerminates(p, g, fd.Body) {
					return true
				}
				r.Reportf(g.Pos(),
					"go statement has no provable termination path; receive from ctx.Done()/a done channel, defer Done on a WaitGroup the spawner waits on, drain a closed channel, or justify with //grblint:ignore goroutine-lifecycle: <reason>")
				return true
			})
		}
	}
}

func goTerminates(p *Package, g *ast.GoStmt, enclosing *ast.BlockStmt) bool {
	lit, isLit := g.Call.Fun.(*ast.FuncLit)
	if !isLit {
		// Named callee: accept if it is handed a context to watch.
		for _, arg := range g.Call.Args {
			if isContextExpr(p, arg) {
				return true
			}
		}
		return false
	}

	ok := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if ok {
			return false
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			// <-ctx.Done(), <-done, <-stopc — a cancellation receive.
			if n.Op.String() == "<-" && isCancelChan(p, n.X) {
				ok = true
			}
		case *ast.RangeStmt:
			// for x := range jobs — ends when the channel is closed.
			if tv, found := p.Info.Types[n.X]; found && tv.Type != nil {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					ok = true
				}
			}
		case *ast.DeferStmt:
			// defer wg.Done() with a matching wg.Wait() in the spawner.
			if obj := waitGroupOf(p, n.Call, "Done"); obj != nil && spawnerWaits(p, enclosing, obj) {
				ok = true
			}
		}
		return !ok
	})
	return ok
}

// isCancelChan reports whether e is a channel expression that plausibly
// carries cancellation: the result of a Done() call, or an identifier
// whose name signals shutdown intent (done, stop, quit, closed, ...).
func isCancelChan(p *Package, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CallExpr:
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
			return true
		}
	case *ast.Ident:
		n := strings.ToLower(e.Name)
		for _, hint := range []string{"done", "stop", "quit", "close", "cancel"} {
			if strings.Contains(n, hint) {
				return true
			}
		}
	case *ast.SelectorExpr:
		return isCancelChan(p, &ast.Ident{Name: e.Sel.Name, NamePos: e.Sel.NamePos})
	}
	return false
}

// waitGroupOf returns the object of the receiver in wg.<method>() when the
// receiver is a sync.WaitGroup, else nil.
func waitGroupOf(p *Package, call *ast.CallExpr, method string) types.Object {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return nil
	}
	tv, found := p.Info.Types[sel.X]
	if !found || tv.Type == nil {
		return nil
	}
	t := tv.Type
	if ptr, okp := t.(*types.Pointer); okp {
		t = ptr.Elem()
	}
	if t.String() != "sync.WaitGroup" {
		return nil
	}
	root := rootIdent(sel.X)
	if root == nil {
		return nil
	}
	return p.Info.ObjectOf(root)
}

// spawnerWaits reports whether the spawning function's body contains a
// Wait() call on the same WaitGroup object.
func spawnerWaits(p *Package, body *ast.BlockStmt, wg types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if obj := waitGroupOf(p, call, "Wait"); obj == wg {
			found = true
		}
		return !found
	})
	return found
}

// isContextExpr reports whether e has type context.Context.
func isContextExpr(p *Package, e ast.Expr) bool {
	tv, found := p.Info.Types[e]
	if !found || tv.Type == nil {
		return false
	}
	return tv.Type.String() == "context.Context"
}
