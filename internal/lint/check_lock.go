package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// lockDisciplineCheck enforces two concurrency invariants the service
// layer's correctness argument rests on (the PR-5 review found exactly
// the bug classes — a drop/flush resurrection race, a generation-guard
// misread — that this kind of mechanical audit catches):
//
//  1. Guarded fields. A struct field annotated
//
//     mu sync.RWMutex
//     warm bool //grblint:guardedby mu
//
//     may only be accessed in a function that provably holds mu: the
//     function locks it itself (a positional Lock/RLock call before the
//     access, the same heuristic pending-tuples uses), carries a
//     `//grblint:locked mu` doc directive asserting its callers hold the
//     lock (the *Locked-helper idiom), or is a func literal passed to a
//     method annotated `//grblint:holdslock mu [read]`, which declares
//     "this method invokes its function arguments with mu held" — the
//     catalog's View/Update callback protocol. Writes require the
//     exclusive lock; an RLock only licenses reads, so a mutation slipped
//     into a read-side callback is flagged. Freshly constructed objects
//     (`s := &Store{…}` in the same function) are exempt: nothing else
//     can see them yet.
//
//  2. Lock ordering, per the repo-wide order cluster → catalog → store.
//     The lockOrderForbidden table names, per package, the packages it
//     must not call into while one of its own mutexes is held: store
//     code must not call the catalog under a store-layer lock (an entry
//     callback may trigger a snapshot save; the reverse closes the cycle
//     and is one blocked writer away from deadlock). A cluster → svc call
//     needs no row: svc imports cluster, so the compiler rejects it as an
//     import cycle.
func lockDisciplineCheck() *Check {
	return &Check{
		Name: "lock-discipline",
		// Guarded-field analysis runs wherever annotations appear; the
		// ordering rule keys off the store package name so it also covers
		// the fixture.
		Applies: func(p *Package) bool { return true },
		Run:     runLockDiscipline,
	}
}

var (
	guardedbyRe = regexp.MustCompile(`grblint:guardedby\s+([A-Za-z_][A-Za-z0-9_]*)`)
	lockedRe    = regexp.MustCompile(`grblint:locked\s+([A-Za-z_][A-Za-z0-9_]*)`)
	holdslockRe = regexp.MustCompile(`grblint:holdslock\s+([A-Za-z_][A-Za-z0-9_]*)(\s+read)?`)
)

// lockOrderForbidden is the repo's lock-order table: package name → the
// import-path suffixes it must not call into while holding any of its
// own mutexes. The order is cluster → catalog → store, so store may not
// re-enter the catalog under lock. (Calls the other way down the order,
// e.g. cluster → catalog under the ring mutex, are legal by design.)
var lockOrderForbidden = map[string][]string{
	"store": {"/catalog"},
}

// guardKey identifies one guarded field: the named struct and field name.
type guardKey struct {
	typeName string
	field    string
}

// lockGrant is a mutex a function context is known to hold.
type lockGrant struct {
	typeName string
	mu       string
	// shared marks a read-side grant (RLock); writes need exclusive.
	shared bool
}

func runLockDiscipline(p *Package, r *Reporter) {
	guards := collectGuards(p, r)
	holds := collectHoldslock(p)

	forbidden := lockOrderForbidden[p.Name]

	// Walk every function declaration; func literals inside are analyzed
	// as their own contexts, with holdslock grants attached when the
	// literal is an argument to an annotated method.
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			var grants []lockGrant
			if fd.Doc != nil {
				for _, c := range fd.Doc.List {
					if m := lockedRe.FindStringSubmatch(c.Text); m != nil {
						grants = append(grants, lockGrant{typeName: recvTypeName(p, fd), mu: m[1]})
					}
				}
			}
			analyzeLockContext(p, r, fd.Body, grants, guards, holds, forbidden)
		}
	}
}

// collectGuards parses guardedby annotations off struct fields, keyed by
// (struct type name, field name) → mutex field name. A directive naming a
// sibling that is not a mutex is reported rather than silently trusted.
func collectGuards(p *Package, r *Reporter) map[guardKey]string {
	guards := map[guardKey]string{}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			fieldNames := map[string]*ast.Field{}
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					fieldNames[name.Name] = field
				}
			}
			for _, field := range st.Fields.List {
				mu := ""
				for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
					if cg == nil {
						continue
					}
					for _, c := range cg.List {
						if m := guardedbyRe.FindStringSubmatch(c.Text); m != nil {
							mu = m[1]
						}
					}
				}
				if mu == "" {
					continue
				}
				sibling, ok := fieldNames[mu]
				if !ok || !isMutexType(p, sibling.Type) {
					r.Reportf(field.Pos(),
						"guardedby names %q, which is not a sync.Mutex/RWMutex field of %s", mu, ts.Name.Name)
					continue
				}
				for _, name := range field.Names {
					guards[guardKey{ts.Name.Name, name.Name}] = mu
				}
			}
			return true
		})
	}
	return guards
}

// collectHoldslock parses holdslock annotations off method declarations,
// keyed by (receiver type name, method name).
func collectHoldslock(p *Package) map[guardKey]lockGrant {
	holds := map[guardKey]lockGrant{}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				if m := holdslockRe.FindStringSubmatch(c.Text); m != nil {
					tn := recvTypeName(p, fd)
					holds[guardKey{tn, fd.Name.Name}] = lockGrant{
						typeName: tn, mu: m[1], shared: m[2] != "",
					}
				}
			}
		}
	}
	return holds
}

// analyzeLockContext checks one function body (a declaration or literal).
// Nested literals are dispatched recursively with their own grant sets and
// are skipped by the enclosing walk.
func analyzeLockContext(p *Package, r *Reporter, body *ast.BlockStmt, grants []lockGrant,
	guards map[guardKey]string, holds map[guardKey]lockGrant, forbidden []string) {

	// Pass 1 over this context only: lock/unlock events, fresh locals,
	// write targets, nested literals (with any holdslock grants they earn).
	type lockEvent struct {
		pos       token.Pos
		typeName  string
		mu        string
		shared    bool
		unlock    bool
		deferred  bool
		sharedUnl bool
	}
	var events []lockEvent
	fresh := map[types.Object]bool{}
	nested := map[*ast.FuncLit][]lockGrant{}
	writes := writeTargets(body)
	incdec := map[ast.Expr]bool{}

	var scan func(n ast.Node, deferred bool)
	scan = func(n ast.Node, deferred bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				if _, seen := nested[n]; !seen {
					nested[n] = nil
				}
				return false
			case *ast.DeferStmt:
				scan(n.Call, true)
				return false
			case *ast.IncDecStmt:
				incdec[n.X] = true
			case *ast.AssignStmt:
				if n.Tok == token.DEFINE {
					for i, lhs := range n.Lhs {
						id, ok := lhs.(*ast.Ident)
						if !ok || i >= len(n.Rhs) {
							continue
						}
						if isFreshValue(n.Rhs[i]) {
							if obj := p.Info.Defs[id]; obj != nil {
								fresh[obj] = true
							}
						}
					}
				}
			case *ast.CallExpr:
				// Lock/unlock event: expr.mu.Lock() etc.
				if tn, mu, op := mutexCall(p, n); op != "" {
					ev := lockEvent{pos: n.Pos(), typeName: tn, mu: mu, deferred: deferred}
					switch op {
					case "Lock":
					case "RLock":
						ev.shared = true
					case "Unlock":
						ev.unlock = true
					case "RUnlock":
						ev.unlock, ev.sharedUnl = true, true
					}
					events = append(events, ev)
				}
				// holdslock grant: literal arguments to an annotated method.
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
					tn := namedRecvType(p, sel)
					if g, ok := holds[guardKey{tn, sel.Sel.Name}]; ok {
						for _, arg := range n.Args {
							if lit, ok := arg.(*ast.FuncLit); ok {
								nested[lit] = append(nested[lit], g)
							}
						}
					}
				}
			}
			return true
		})
	}
	scan(body, false)

	held := func(pos token.Pos, tn, mu string, needExclusive bool) bool {
		for _, g := range grants {
			if g.typeName == tn && g.mu == mu && !(needExclusive && g.shared) {
				return true
			}
		}
		// Positional heuristic: a matching Lock (or RLock, for reads)
		// earlier in this context, not released again before the access.
		// Deferred unlocks run at return and never release mid-body.
		depth := 0
		for _, ev := range events {
			if ev.typeName != tn || ev.mu != mu || ev.pos >= pos {
				continue
			}
			switch {
			case ev.unlock && !ev.deferred:
				if depth > 0 {
					depth--
				}
			case !ev.unlock && !(needExclusive && ev.shared):
				depth++
			case !ev.unlock: // shared lock while we need exclusive
				// neither helps nor hurts
			}
		}
		return depth > 0
	}

	// Pass 2: guarded-field accesses in this context.
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				analyzeLockContext(p, r, lit.Body, nested[lit], guards, holds, forbidden)
				return false
			}
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			tn := namedRecvType(p, sel)
			if tn == "" {
				return true
			}
			mu, guarded := guards[guardKey{tn, sel.Sel.Name}]
			if !guarded {
				return true
			}
			if root := rootIdent(sel); root != nil {
				if obj := p.Info.ObjectOf(root); obj != nil && fresh[obj] {
					return true
				}
			}
			isWrite := writes[sel] || incdec[sel]
			if held(sel.Pos(), tn, mu, isWrite) {
				return true
			}
			verb := "reads"
			need := "hold " + mu + " (Lock or RLock)"
			if isWrite {
				verb = "writes"
				need = "hold " + mu + " exclusively (Lock, not RLock)"
			}
			r.Reportf(sel.Pos(),
				"%s %s.%s, which is guarded by %s, without the lock: %s first, mark the function //grblint:locked %s, or run inside a holdslock callback",
				verb, tn, sel.Sel.Name, mu, need, mu)
			return true
		})
	}
	walk(body)

	// Lock-ordering rule: no call into a forbidden package (per the
	// lockOrderForbidden table) while any of this package's mutexes is
	// held in this context.
	if len(forbidden) > 0 {
		ast.Inspect(body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false // own context, already analyzed
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := p.Info.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			target := ""
			for _, suffix := range forbidden {
				if strings.HasSuffix(obj.Pkg().Path(), suffix) {
					target = strings.TrimPrefix(suffix, "/")
				}
			}
			if target == "" {
				return true
			}
			heldHere := false
			depth := map[string]int{}
			for _, ev := range events {
				if ev.pos >= call.Pos() {
					continue
				}
				key := ev.typeName + "." + ev.mu
				if ev.unlock && !ev.deferred {
					if depth[key] > 0 {
						depth[key]--
					}
				} else if !ev.unlock {
					depth[key]++
				}
			}
			for _, g := range grants {
				depth[g.typeName+"."+g.mu]++
			}
			for _, d := range depth {
				if d > 0 {
					heldHere = true
				}
			}
			if heldHere {
				r.Reportf(call.Pos(),
					"calls %s.%s while holding a %s-layer mutex; the lock order (cluster→catalog→store) forbids %s code from entering %s under lock — release the lock (snapshot the state you need) first",
					target, sel.Sel.Name, p.Name, p.Name, target)
			}
			return true
		})
	}
}

// mutexCall decodes expr.mu.Lock()/RLock()/Unlock()/RUnlock() into the
// owning named type, the mutex field name and the operation; op is ""
// for anything else.
func mutexCall(p *Package, call *ast.CallExpr) (typeName, mu, op string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", ""
	}
	inner, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return "", "", ""
	}
	if !isMutexType(p, inner) {
		return "", "", ""
	}
	return namedRecvType(p, inner), inner.Sel.Name, sel.Sel.Name
}

// isMutexType reports whether the expression's type is sync.Mutex or
// sync.RWMutex (possibly behind a pointer).
func isMutexType(p *Package, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	s := t.String()
	return s == "sync.Mutex" || s == "sync.RWMutex"
}

// isFreshValue reports expressions that construct a brand-new object: a
// composite literal, optionally addressed, or new(T).
func isFreshValue(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			_, ok := e.X.(*ast.CompositeLit)
			return ok
		}
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "new" {
			return true
		}
	}
	return false
}

// rootIdent returns the leftmost identifier of a selector chain, or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// recvTypeName returns the name of a method's receiver type, or "" for a
// plain function.
func recvTypeName(p *Package, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr: // generic receiver
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
