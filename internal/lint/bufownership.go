package lint

// bufownership enforces the pooled-frame lifetime contract of
// internal/wire (DESIGN.md §2.9): a *wire.Frame returned by an Arena is
// owned by the caller until Release, Release must be called exactly once,
// and neither the frame nor anything aliasing its buffer (Bytes, decoded
// payloads) may be touched afterwards — the buffer is back in the pool
// and any goroutine may already be overwriting it. At runtime a double
// Release panics and a use-after-release is a silent use-after-free
// analog; this check catches both shapes statically, at the call site,
// before a test has to get lucky with pool reuse timing.
//
// One state per interpreted path records every way a frame stops being
// the function's to touch: released (by a direct Release, or by passing
// it to a callee whose summary says the parameter is always released),
// retained (stored in a field, container or channel here, or by a callee
// whose summary says so — ownership moved, the new owner releases), and
// deferred (a Release scheduled for function exit: later uses stay legal,
// any other Release is a double). The retain recogniser is the one the
// summaries apply to parameters, so `stash(f); f.Release()` and
// `q.frames[i] = f; f.Release()` are the same finding. Reassigning the
// variable starts a new frame and clears its state. Safe-by-construction
// patterns the approximation cannot see (ownership handoff between
// goroutines, release-then-refill helpers) are documented at the call
// site with //calint:ignore bufownership <reason>.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
)

var bufownershipAnalyzer = &Analyzer{
	Name: "bufownership",
	Doc:  "pooled wire.Frame released twice, used after Release, or released after a handoff",
	Run:  runBufownership,
	Contract: "A *wire.Frame is released exactly once, by its owner, and not touched afterwards. " +
		"A direct Release retires the frame, and so does passing it to a function whose summary " +
		"says the parameter is always released (directly or through its own callees, computed to " +
		"fixpoint): any later use or Release on that path is a finding. Storing the frame in a " +
		"field, container or channel — in this function, or in a callee whose summary says the " +
		"parameter is retained — moves ownership: a later Release here is a finding, later reads " +
		"are not. A deferred Release (or deferred always-releasing call) fires at function exit, " +
		"so later uses stay legal and any other Release is a double. Reassigning the variable " +
		"starts a fresh frame; goroutine and closure bodies are analyzed with fresh state; " +
		"maybe-release parameters are tracked but not reported.",
	Example: `internal/tcpnet/tcpnet.go:412:2: bufownership: frame fr released after ownership moved to tcpnet.(*Conn).bufferTail at line 407; the retaining side releases it — releasing here double-frees the pooled buffer`,
}

// frameFact records why a frame is no longer the function's to touch.
type frameFact struct {
	pos      token.Pos // the Release, call or store that ended ownership
	by       string    // the callee that consumed it or the place it was stored; "" for a direct Release
	retained bool      // ownership moved and the buffer is still live, rather than released
}

// frameFacts is the interpreter state, keyed by the printed frame
// expression ("f", "c.hdr"): gone holds the facts in force on this path,
// deferred the releases scheduled for function exit.
type frameFacts struct{ gone, deferred map[string]frameFact }

func runBufownership(p *Pass) {
	p.prog.ensureSummaries()
	f := flow[frameFacts]{
		clone: func(st frameFacts) frameFacts {
			return frameFacts{maps.Clone(st.gone), maps.Clone(st.deferred)}
		},
		stmt: func(stmt ast.Stmt, st frameFacts) { frameStmt(p, stmt, st) },
		expr: func(e ast.Expr, st frameFacts) { checkFrameUse(p, e, st) },
	}
	for _, file := range p.Files {
		eachBody(file, func(body *ast.BlockStmt) {
			f.list(body.List, frameFacts{map[string]frameFact{}, map[string]frameFact{}})
		})
	}
}

func frameStmt(p *Pass, stmt ast.Stmt, st frameFacts) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if key, ok := frameReleaseOp(p, s.X); ok {
			checkFrameRelease(p, key, s.X.Pos(), st)
			st.gone[key] = frameFact{pos: s.X.Pos()}
			return
		}
	case *ast.DeferStmt:
		// A deferred release fires at function exit, after every later
		// statement — it does not retire the frame for the rest of the
		// body, but a second Release anywhere is still a double release.
		if key, ok := frameReleaseOp(p, s.Call); ok {
			checkFrameRelease(p, key, s.Call.Pos(), st)
			st.deferred[key] = frameFact{pos: s.Call.Pos()}
			return
		}
		checkFrameUse(p, s.Call, st)
		applyFrameCalls(p, s.Call, st.deferred, true)
		return
	}
	// The call being applied has not updated the state yet, so its own
	// arguments are never self-flagged.
	for _, e := range operands(stmt) {
		checkFrameUse(p, e, st)
		applyFrameCalls(p, e, st.gone, false)
	}
	if g, ok := stmt.(*ast.GoStmt); ok {
		// The spawned body runs with fresh state; only the handoff itself
		// is interpreted here.
		applyFrameCalls(p, g.Call, st.gone, false)
	}
	frameRetains(p, stmt, func(e ast.Expr, into string) {
		switch ast.Unparen(e).(type) {
		case *ast.Ident, *ast.SelectorExpr:
			if isFrameType(p.Info.TypeOf(e)) {
				st.gone[exprKey(e)] = frameFact{pos: e.Pos(), by: into, retained: true}
			}
		}
	})
	// Assigning to the variable binds it to a fresh frame: its previous
	// lifetime ends here and tracking restarts.
	if as, ok := stmt.(*ast.AssignStmt); ok {
		for _, e := range as.Lhs {
			delete(st.gone, exprKey(e))
			delete(st.deferred, exprKey(e))
		}
	}
}

// applyFrameCalls records into facts the ownership effect of every static
// single-callee call in expr on its frame arguments: a retaining
// parameter moves ownership, an always-releasing one retires the frame.
// For a deferred call only a pure release counts — it is the one effect
// that is scheduled rather than immediate.
func applyFrameCalls(p *Pass, expr ast.Expr, facts map[string]frameFact, deferred bool) {
	eachCall(expr, func(call *ast.CallExpr) {
		callees, iface := p.prog.resolveCall(p, call)
		if iface || len(callees) != 1 {
			return
		}
		for i, arg := range call.Args {
			eff, ok := callees[0].Sum.FrameParams[i]
			if !ok || !isFrameType(p.Info.TypeOf(arg)) {
				continue
			}
			switch ast.Unparen(arg).(type) {
			case *ast.Ident, *ast.SelectorExpr:
			default:
				continue
			}
			released := eff.Release == ReleaseAlways && !eff.Retains
			if released || eff.Retains && !deferred {
				facts[exprKey(arg)] = frameFact{pos: call.Pos(), by: displayName(callees[0].Fn), retained: eff.Retains}
			}
		}
	})
}

// checkFrameRelease flags a Release of a frame that is already gone on
// this path or has a Release scheduled for function exit.
func checkFrameRelease(p *Pass, key string, pos token.Pos, st frameFacts) {
	f, gone := st.gone[key]
	d, scheduled := st.deferred[key]
	line := func(f frameFact) int { return p.Fset.Position(f.pos).Line }
	var why string
	switch {
	case gone && f.retained:
		p.Reportf(pos, "frame %s released after ownership moved to %s at line %d; the retaining side releases it — releasing here double-frees the pooled buffer",
			key, f.by, line(f))
		return
	case gone && f.by == "":
		why = fmt.Sprintf(" (first at line %d)", line(f))
	case gone:
		why = fmt.Sprintf(": %s already released it at line %d", f.by, line(f))
	case scheduled && d.by == "":
		why = fmt.Sprintf(" (deferred Release at line %d also fires)", line(d))
	case scheduled:
		why = fmt.Sprintf(": deferred call to %s at line %d also releases it", d.by, line(d))
	default:
		return
	}
	p.Reportf(pos, "frame %s released twice%s; the second Release panics and would poison the pool", key, why)
}

// checkFrameUse reports any appearance of a released frame inside expr
// (function literals excluded: they execute elsewhere). Reads of a
// retained frame are the new owner's race to lose, not a pool-corruption
// bug; only its Release is reported.
func checkFrameUse(p *Pass, expr ast.Expr, st frameFacts) {
	if len(st.gone) == 0 || expr == nil {
		return
	}
	ast.Inspect(expr, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.Ident, *ast.SelectorExpr:
		default:
			return true
		}
		key := exprKey(n.(ast.Expr))
		f, hit := st.gone[key]
		if !hit {
			return true
		}
		line := p.Fset.Position(f.pos).Line
		switch {
		case f.retained:
		case f.by == "":
			p.Reportf(n.Pos(), "frame %s used after Release (released at line %d); the pooled buffer may already be reused — copy what you need before releasing", key, line)
		default:
			p.Reportf(n.Pos(), "frame %s used after %s released it at line %d; the pooled buffer may already be reused — copy what you need before the handoff", key, f.by, line)
		}
		return false
	})
}

// frameReleaseOp reports whether expr is a Release() call on a
// *wire.Frame and returns the receiver's tracking key.
func frameReleaseOp(p *Pass, expr ast.Expr) (key string, ok bool) {
	call, isCall := ast.Unparen(expr).(*ast.CallExpr)
	if !isCall {
		return "", false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", false
	}
	fn := calleeFunc(p.Info, call)
	if fn == nil || fn.Name() != "Release" {
		return "", false
	}
	if rp, rt := recvTypeName(fn); rp != modulePath+"/internal/wire" || rt != "Frame" {
		return "", false
	}
	return exprKey(sel.X), true
}

// isFrameType reports whether t is *wire.Frame.
func isFrameType(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := ptr.Elem().(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == modulePath+"/internal/wire" && n.Obj().Name() == "Frame"
}

// frameRetains is the retain recogniser: it reports every value under n
// (function literals and go statements excluded) that outlives the
// statement holding it — assigned into a field or an element, appended,
// placed in a composite literal, sent, or returned — with a description
// of where it went. Callers filter for the frames they track: the
// interpreter for frame-typed locals, the summaries for frame parameters.
func frameRetains(p *Pass, n ast.Node, visit func(e ast.Expr, into string)) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.AssignStmt:
			for i, r := range x.Rhs {
				if i >= len(x.Lhs) {
					break
				}
				switch ast.Unparen(x.Lhs[i]).(type) {
				case *ast.SelectorExpr, *ast.IndexExpr:
					visit(r, exprKey(x.Lhs[i]))
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && len(x.Args) > 0 {
				if b, ok := p.Info.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
					for _, a := range x.Args[1:] {
						visit(a, exprKey(x.Args[0]))
					}
				}
			}
		case *ast.CompositeLit:
			for _, elt := range x.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					elt = kv.Value
				}
				visit(elt, "a composite literal")
			}
		case *ast.SendStmt:
			visit(x.Value, "channel "+exprKey(x.Chan))
		case *ast.ReturnStmt:
			for _, r := range x.Results {
				visit(r, "the caller")
			}
		}
		return true
	})
}
