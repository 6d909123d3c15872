package lint

import "go/ast"

// flow is the one statement interpreter under the stateful checks
// (mutexhold and lockorder through walkLocks, bufownership directly). It
// is flow-approximate on purpose: sequential statements thread one state,
// every branch body — if/else arm, loop body, switch/select clause — runs
// on a clone of the state at the branch point and its effects do not flow
// back, and function literals are never entered (eachBody interprets each
// on its own, with fresh state: a closure or goroutine body runs
// elsewhere). A check plugs in what it does at a simple statement and at
// an expression a control statement evaluates; the structural arms exist
// once, here.
type flow[S any] struct {
	// clone forks the state for a branch body.
	clone func(S) S
	// stmt interprets one simple statement — expression, assignment,
	// return, defer, go, send, declaration — against the state.
	stmt func(ast.Stmt, S)
	// expr interprets an expression a control statement evaluates in the
	// current state: an if/for condition, a range operand, a switch tag.
	// It is called with nil for an absent one.
	expr func(ast.Expr, S)
}

func (f *flow[S]) list(stmts []ast.Stmt, st S) {
	for _, s := range stmts {
		f.walk(s, st)
	}
}

func (f *flow[S]) walk(stmt ast.Stmt, st S) {
	switch s := stmt.(type) {
	case nil:
	case *ast.LabeledStmt:
		f.walk(s.Stmt, st)
	case *ast.BlockStmt:
		f.list(s.List, st)
	case *ast.IfStmt:
		f.walk(s.Init, st)
		f.expr(s.Cond, st)
		f.list(s.Body.List, f.clone(st))
		if s.Else != nil {
			f.walk(s.Else, f.clone(st))
		}
	case *ast.ForStmt:
		f.walk(s.Init, st)
		f.expr(s.Cond, st)
		f.list(s.Body.List, f.clone(st))
	case *ast.RangeStmt:
		f.expr(s.X, st)
		f.list(s.Body.List, f.clone(st))
	case *ast.SwitchStmt:
		f.walk(s.Init, st)
		f.expr(s.Tag, st)
		f.clauses(s.Body, st)
	case *ast.TypeSwitchStmt:
		f.clauses(s.Body, st)
	case *ast.SelectStmt:
		f.clauses(s.Body, st)
	default:
		f.stmt(s, st)
	}
}

func (f *flow[S]) clauses(body *ast.BlockStmt, st S) {
	for _, c := range body.List {
		switch cc := c.(type) {
		case *ast.CaseClause:
			f.list(cc.Body, f.clone(st))
		case *ast.CommClause:
			f.list(cc.Body, f.clone(st))
		}
	}
}

// eachBody visits the body of every function declaration and function
// literal under n, outermost first.
func eachBody(n ast.Node, visit func(*ast.BlockStmt)) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				visit(fn.Body)
			}
		case *ast.FuncLit:
			visit(fn.Body)
		}
		return true
	})
}

// operands returns the expressions a simple statement evaluates on the
// spot. A go statement evaluates its arguments here and runs the call
// elsewhere; a deferred call runs at function exit, which the
// interpreters treat as "later on this path".
func operands(stmt ast.Stmt) []ast.Expr {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		return []ast.Expr{s.X}
	case *ast.AssignStmt:
		return s.Rhs
	case *ast.ReturnStmt:
		return s.Results
	case *ast.SendStmt:
		return []ast.Expr{s.Chan, s.Value}
	case *ast.GoStmt:
		return s.Call.Args
	case *ast.DeferStmt:
		return []ast.Expr{s.Call}
	case *ast.DeclStmt:
		var out []ast.Expr
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					out = append(out, vs.Values...)
				}
			}
		}
		return out
	}
	return nil
}

// eachCall visits every call in expr in source order. Function literals
// are skipped: their bodies execute elsewhere.
func eachCall(expr ast.Expr, visit func(*ast.CallExpr)) {
	if expr == nil {
		return
	}
	ast.Inspect(expr, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			visit(x)
		}
		return true
	})
}
