// Whole-program view: the facts every check may consult.
//
// A Program bundles every loaded package of the module into one structure:
// the declared functions, a module-aware call graph (static calls resolved
// exactly; calls through module-declared interfaces resolved by
// class-hierarchy analysis to every module type implementing the
// interface), and — lazily — the per-function summaries computed by
// summary.go. Per-package analyzers reach the Program through Pass.prog;
// the global analyzers (lockorder, errflow) receive it directly.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Program is the module-wide analysis context. It is built once per Run
// over every package the loader touched and cached on each Pass.
type Program struct {
	Fset   *token.FileSet
	Passes []*Pass // sorted by RelPkg for determinism

	built     bool
	funcs     map[*types.Func]*FuncInfo
	infos     []*FuncInfo // deterministic order: declaration position
	named     []*types.Named
	pkgs      map[*types.Package]bool // packages loaded as passes
	implCache map[*types.Interface]map[string][]*FuncInfo

	summarized bool

	// reporting context, set by the global-analyzer runner
	check string
	emit  func(p *Pass, f Finding)
}

// FuncInfo is one declared function or method of the module together with
// its call sites, its mutex operations, and (once computed) its summary.
type FuncInfo struct {
	Fn      *types.Func
	Decl    *ast.FuncDecl
	Pass    *Pass
	Sum     *Summary
	recvObj types.Object // receiver variable, nil for plain functions

	Calls []CallSite
	Locks []LockSite
}

// CallSite is one resolved call expression inside a function body.
type CallSite struct {
	Call    *ast.CallExpr
	Callees []*FuncInfo // module callees: one for static calls, many via CHA
	Iface   bool        // resolved through a module-declared interface
	InLit   bool        // inside a nested func literal: executes elsewhere
	InGo    bool        // under a go statement: executes concurrently
}

// LockSite is one sync Lock/Unlock call inside a function body, tagged
// with its execution context like a CallSite.
type LockSite struct {
	Call     *ast.CallExpr
	x        ast.Expr // the locked expression ("c.mu")
	acquires bool
	InLit    bool
	InGo     bool
}

// newProgram bundles the given passes. Construction is cheap; the call
// graph and summaries are built on first use.
func newProgram(fset *token.FileSet, passes []*Pass) *Program {
	sorted := append([]*Pass(nil), passes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].RelPkg < sorted[j].RelPkg })
	pr := &Program{Fset: fset, Passes: sorted}
	for _, p := range sorted {
		p.prog = pr
	}
	return pr
}

// ensure builds the function table and call graph.
func (pr *Program) ensure() {
	if pr.built {
		return
	}
	pr.built = true
	pr.funcs = map[*types.Func]*FuncInfo{}
	pr.pkgs = map[*types.Package]bool{}
	pr.implCache = map[*types.Interface]map[string][]*FuncInfo{}
	for _, p := range pr.Passes {
		pr.pkgs[p.Pkg] = true
		scope := p.Pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok {
					pr.named = append(pr.named, n)
				}
			}
		}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &FuncInfo{Fn: fn, Decl: fd, Pass: p, Sum: newSummary()}
				if fd.Recv != nil && len(fd.Recv.List) > 0 && len(fd.Recv.List[0].Names) > 0 {
					fi.recvObj = p.Info.Defs[fd.Recv.List[0].Names[0]]
				}
				pr.funcs[fn] = fi
				pr.infos = append(pr.infos, fi)
			}
		}
	}
	sort.Slice(pr.infos, func(i, j int) bool { return pr.infos[i].Decl.Pos() < pr.infos[j].Decl.Pos() })
	for _, fi := range pr.infos {
		pr.collectSites(fi)
	}
}

// collectSites records every module call and every mutex operation in
// fi's body, tagging nodes under func literals (execute elsewhere) and go
// statements (execute concurrently) so the summary fixpoint can exclude
// them from synchronous facts.
func (pr *Program) collectSites(fi *FuncInfo) {
	type item struct {
		n           ast.Node
		inLit, inGo bool
	}
	queue := []item{{fi.Decl.Body, false, false}}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		ast.Inspect(it.n, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncLit:
				queue = append(queue, item{x.Body, true, it.inGo})
				return false
			case *ast.GoStmt:
				if lit, ok := x.Call.Fun.(*ast.FuncLit); ok {
					queue = append(queue, item{lit.Body, false, true})
				} else if callees, iface := pr.resolveCall(fi.Pass, x.Call); len(callees) > 0 {
					fi.Calls = append(fi.Calls, CallSite{Call: x.Call, Callees: callees, Iface: iface, InLit: it.inLit, InGo: true})
				}
				for _, a := range x.Call.Args {
					queue = append(queue, item{a, it.inLit, it.inGo})
				}
				return false
			case *ast.CallExpr:
				if lx, acquires, ok := lockOp(fi.Pass, x); ok {
					fi.Locks = append(fi.Locks, LockSite{Call: x, x: lx, acquires: acquires, InLit: it.inLit, InGo: it.inGo})
				} else if callees, iface := pr.resolveCall(fi.Pass, x); len(callees) > 0 {
					fi.Calls = append(fi.Calls, CallSite{Call: x, Callees: callees, Iface: iface, InLit: it.inLit, InGo: it.inGo})
				}
			}
			return true
		})
	}
	sort.Slice(fi.Calls, func(i, j int) bool { return fi.Calls[i].Call.Pos() < fi.Calls[j].Call.Pos() })
	sort.Slice(fi.Locks, func(i, j int) bool { return fi.Locks[i].Call.Pos() < fi.Locks[j].Call.Pos() })
}

// resolveCall maps a call expression to the module functions it may
// invoke. Static calls resolve to exactly one; calls through a
// module-declared interface resolve by CHA to every module type
// implementing it. Stdlib callees and func-typed variables resolve to
// nothing.
func (pr *Program) resolveCall(p *Pass, call *ast.CallExpr) ([]*FuncInfo, bool) {
	fn := calleeFunc(p.Info, call)
	if fn == nil {
		return nil, false
	}
	if fi, ok := pr.funcs[fn]; ok {
		return []*FuncInfo{fi}, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil, false
	}
	iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
	if !ok {
		return nil, false
	}
	if fn.Pkg() == nil || !pr.pkgs[fn.Pkg()] {
		return nil, false // stdlib interfaces: out of scope for CHA
	}
	return pr.implsOf(iface, fn.Name()), true
}

// implsOf returns the module methods implementing the named method of a
// module-declared interface, in deterministic order.
func (pr *Program) implsOf(iface *types.Interface, name string) []*FuncInfo {
	byName := pr.implCache[iface]
	if byName == nil {
		byName = map[string][]*FuncInfo{}
		pr.implCache[iface] = byName
	}
	if impls, ok := byName[name]; ok {
		return impls
	}
	var impls []*FuncInfo
	for _, n := range pr.named {
		if types.IsInterface(n.Underlying()) {
			continue
		}
		ptr := types.NewPointer(n)
		if !types.Implements(ptr, iface) && !types.Implements(n, iface) {
			continue
		}
		ms := types.NewMethodSet(ptr)
		for i := 0; i < ms.Len(); i++ {
			m, ok := ms.At(i).Obj().(*types.Func)
			if !ok || m.Name() != name {
				continue
			}
			if fi, ok := pr.funcs[m]; ok {
				impls = append(impls, fi)
			}
		}
	}
	sort.Slice(impls, func(i, j int) bool { return impls[i].Decl.Pos() < impls[j].Decl.Pos() })
	byName[name] = impls
	return impls
}

// infoOf returns the FuncInfo for fn, or nil.
func (pr *Program) infoOf(fn *types.Func) *FuncInfo {
	pr.ensure()
	return pr.funcs[fn]
}

// Reportf records a global-analyzer diagnostic positioned in pass p.
func (pr *Program) Reportf(p *Pass, pos token.Pos, format string, args ...any) {
	position := pr.Fset.Position(pos)
	pr.emit(p, Finding{
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Check:   pr.check,
		Message: fmt.Sprintf(format, args...),
	})
}

// displayName renders a function in module-relative qualified form:
// "tcpnet.(*Conn).readLoop", "convexagreement.RunParty".
func displayName(fn *types.Func) string {
	full := fn.FullName()
	full = strings.ReplaceAll(full, modulePath+"/internal/", "")
	full = strings.ReplaceAll(full, modulePath+"/", "")
	return full
}

// Edges returns the deduplicated, sorted call-graph edge list in
// "caller -> callee" form: " ?> " for interface-dispatched edges, " go "
// for calls that run on a spawned goroutine (an edge that is both is
// listed under each). It is the surface pinned by the call-graph golden
// test.
func (pr *Program) Edges() []string {
	pr.ensure()
	seen := map[string]bool{}
	for _, fi := range pr.infos {
		for _, cs := range fi.Calls {
			for _, callee := range cs.Callees {
				from, to := displayName(fi.Fn), displayName(callee.Fn)
				if cs.Iface {
					seen[from+" ?> "+to] = true
				}
				if cs.InGo {
					seen[from+" go "+to] = true
				}
				if !cs.Iface && !cs.InGo {
					seen[from+" -> "+to] = true
				}
			}
		}
	}
	out := make([]string, 0, len(seen))
	for e := range seen {
		out = append(out, e)
	}
	sort.Strings(out)
	return out
}
