package lint

// The held-lock interpretation shared by mutexhold and lockorder: one
// recogniser for sync Lock/Unlock calls, one naming scheme for lock
// classes, and one walk that threads the set of held mutexes through a
// function body with the flow interpreter. The two checks differ only in
// what they ask at each event — mutexhold "does this call block?",
// lockorder "which ordering edges does this acquisition add?".

import (
	"cmp"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"
	"strings"
)

// lockOp recognises a sync.Mutex/RWMutex/Locker Lock, RLock, Unlock or
// RUnlock call and returns the locked expression ("c.mu") and whether the
// call acquires.
func lockOp(p *Pass, call *ast.CallExpr) (x ast.Expr, acquires, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, false, false
	}
	fn := calleeFunc(p.Info, call)
	if fn == nil {
		return nil, false, false
	}
	rp, rt := recvTypeName(fn)
	if rp != "sync" || (rt != "Mutex" && rt != "RWMutex" && rt != "Locker") {
		return nil, false, false
	}
	switch fn.Name() {
	case "Lock", "RLock":
		return sel.X, true, true
	case "Unlock", "RUnlock":
		return sel.X, false, true
	}
	return nil, false, false
}

// exprKey renders an expression as a stable tracking key.
func exprKey(x ast.Expr) string {
	switch e := ast.Unparen(x).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprKey(e.X) + "." + e.Sel.Name
	case *ast.StarExpr:
		return exprKey(e.X)
	case *ast.IndexExpr:
		return exprKey(e.X) + "[...]"
	default:
		return "mutex"
	}
}

// lockClassOf names the lock class of a locked expression and, when the
// expression is rooted at the function's receiver, its receiver-relative
// field path. Classes are "<pkg>.<Type>.<field>" for struct fields,
// "<pkg>.<var>" for package-level mutexes, "<pkg>.<Type>.Mutex" for
// embedded mutexes. Locals and parameters have no class ("").
func lockClassOf(p *Pass, recvObj types.Object, x ast.Expr) (class, recvRel string) {
	x = ast.Unparen(x)
	if ix, ok := x.(*ast.IndexExpr); ok {
		x = ast.Unparen(ix.X)
	}
	switch e := x.(type) {
	case *ast.SelectorExpr:
		if sel := p.Info.Selections[e]; sel != nil && sel.Kind() == types.FieldVal {
			t := sel.Recv()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if n, ok := t.(*types.Named); ok && n.Obj().Pkg() != nil {
				class = n.Obj().Pkg().Name() + "." + n.Obj().Name() + "." + e.Sel.Name
			}
		}
		if recvObj != nil {
			if id := rootIdent(e.X); id != nil && objOf(p.Info, id) == recvObj {
				full := exprKey(e)
				if i := strings.IndexByte(full, '.'); i >= 0 {
					recvRel = full[i+1:]
				}
			}
		}
	case *ast.Ident:
		obj := objOf(p.Info, e)
		v, ok := obj.(*types.Var)
		if !ok {
			return "", ""
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Name() + "." + v.Name(), ""
		}
		// a named struct value with an embedded mutex
		t := v.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if n, ok := t.(*types.Named); ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() != "sync" {
			class = n.Obj().Pkg().Name() + "." + n.Obj().Name() + ".Mutex"
		}
		if obj == recvObj {
			recvRel = "."
		}
	}
	return class, recvRel
}

// heldLock is one mutex held on the interpreted path.
type heldLock struct {
	name  string    // the locked expression as the function writes it ("c.mu")
	class string    // its lock class; "" for locals and parameters
	pos   token.Pos // where it was acquired
}

// heldLocks is the interpreter state: held mutexes keyed by class, or by
// the printed expression for one that has no class. Two instances of one
// class share an entry; holding both at once is a lockorder finding in
// its own right.
type heldLocks map[string]heldLock

// sorted returns the held mutexes in a stable order (by name as written).
func (h heldLocks) sorted() []heldLock {
	out := make([]heldLock, 0, len(h))
	for _, l := range h {
		out = append(out, l)
	}
	slices.SortFunc(out, func(a, b heldLock) int { return strings.Compare(a.name, b.name) })
	return out
}

// lockEvents is what a check sees of the interpretation. acquire (may be
// nil) fires at a direct Lock/RLock, before its mutex joins held; call
// fires at every other call the path evaluates.
type lockEvents struct {
	acquire func(call *ast.CallExpr, class string, held heldLocks)
	call    func(call *ast.CallExpr, held heldLocks)
}

// walkLocks interprets one function body. A Lock statement adds its mutex
// to the held set and an Unlock removes it; `defer mu.Unlock()` leaves the
// set unchanged — it keeps the mutex held to function exit, which is
// exactly the window under analysis — and any other deferred call is
// treated as running under whatever is held where it is deferred. A `go`
// statement's call runs on its own stack and sees none of this. A
// statement-level static call to a lock helper (`c.lockAll()`, whose
// summary nets an acquisition or a release at return) moves the held set
// like the Lock it wraps.
func walkLocks(p *Pass, body *ast.BlockStmt, ev lockEvents) {
	scan := func(e ast.Expr, held heldLocks) {
		eachCall(e, func(call *ast.CallExpr) { ev.call(call, held) })
	}
	f := flow[heldLocks]{clone: maps.Clone[heldLocks], expr: scan}
	f.stmt = func(stmt ast.Stmt, held heldLocks) {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			call, isCall := s.X.(*ast.CallExpr)
			if !isCall {
				break
			}
			x, acquires, ok := lockOp(p, call)
			if !ok {
				break
			}
			lock := heldLock{name: exprKey(x), pos: call.Pos()}
			lock.class, _ = lockClassOf(p, nil, x)
			id := cmp.Or(lock.class, lock.name)
			if !acquires {
				delete(held, id)
				return
			}
			if ev.acquire != nil {
				ev.acquire(call, lock.class, held)
			}
			held[id] = lock
			return
		case *ast.DeferStmt:
			if _, _, ok := lockOp(p, s.Call); ok {
				return
			}
		}
		for _, e := range operands(stmt) {
			scan(e, held)
		}
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			applyLockNets(p, s.X, held)
		case *ast.AssignStmt:
			if len(s.Rhs) == 1 {
				applyLockNets(p, s.Rhs[0], held)
			}
		}
	}
	f.list(body.List, heldLocks{})
}

// applyLockNets maps the summarized net lock effect of a static call onto
// the held set. A helper that locks through its own receiver is named
// relative to the call site's receiver (`g.locked()` holds "g.mu").
func applyLockNets(p *Pass, expr ast.Expr, held heldLocks) {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return
	}
	callees, iface := p.prog.resolveCall(p, call)
	if iface || len(callees) != 1 {
		return
	}
	for class, net := range callees[0].Sum.NetLocks {
		if net.n < 0 {
			delete(held, class)
			continue
		}
		name := class
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && net.recvRel != "" {
			name = exprKey(sel.X)
			if net.recvRel != "." {
				name += "." + net.recvRel
			}
		}
		held[class] = heldLock{name: name, class: class, pos: call.Pos()}
	}
}
