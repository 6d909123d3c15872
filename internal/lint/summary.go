// Function-summary IR for the interprocedural analyzers.
//
// Each declared function gets a Summary: the lock classes it acquires
// (transitively, with witness positions), its net lock effect at return
// (per class, with the receiver-relative field path when there is one, so
// callers can map `c.lockHelper()` onto their own held set), the typed
// error families its error results can carry, the families it tests with
// errors.Is/As, the release/retain effect it has on each *wire.Frame
// parameter, and the sink each slice parameter's element order reaches
// (maporder.go computes that one). Summaries are computed bottom-up by a bounded monotone
// fixpoint over the call graph: every fact domain is finite (lock nets
// are clamped), so the iteration terminates even on mutual recursion.
package lint

import (
	"cmp"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"path/filepath"
	"sort"
	"strings"
)

// maxSummaryRounds bounds the fixpoint; every domain is finite so this is
// a backstop, not a correctness requirement.
const maxSummaryRounds = 32

// lockNetClamp bounds net lock counts so recursive lock helpers cannot
// diverge the fixpoint.
const lockNetClamp = 4

// ReleaseMode classifies what a callee does to a frame parameter.
type ReleaseMode int

const (
	ReleaseNever  ReleaseMode = iota // callee never releases the frame
	ReleaseMaybe                     // releases on some paths
	ReleaseAlways                    // releases unconditionally
)

func (m ReleaseMode) String() string {
	switch m {
	case ReleaseMaybe:
		return "maybe"
	case ReleaseAlways:
		return "always"
	}
	return "never"
}

// FrameEffect is a callee's effect on one *wire.Frame parameter.
type FrameEffect struct {
	Release ReleaseMode
	Retains bool // stored in a field/container/channel: ownership transfer
}

// acq is one transitively-acquired lock class: the witness position and
// whether any hop of the acquisition path was interface-dispatched (CHA
// edges are possible, not proven, so self-deadlock reports require a
// static path).
type acq struct {
	pos      token.Pos
	viaIface bool
}

// lockNet is a function's net effect on one lock class at return.
type lockNet struct {
	n       int    // acquisitions minus releases, clamped to ±lockNetClamp
	recvRel string // the lock's field path from the function's receiver ("mu"; "." for an embedded mutex), "" if not reached through it
}

// Summary is the per-function fact sheet.
type Summary struct {
	NetLocks map[string]lockNet // lock class -> net effect at return
	Acquires map[string]acq     // lock class -> acquisition witness in the call tree

	TypedErrs map[string]token.Pos // error family -> production/propagation witness
	Handles   map[string]bool      // families tested with errors.Is/As/== in this body
	ErrParams map[int]bool         // error parameter index -> preserved (stored/returned/forwarded intact)

	FrameParams map[int]FrameEffect // parameter index -> frame effect
	OrderParams map[int]string      // slice parameter index -> the sink its element order reaches

	topNodes map[ast.Node]bool // exprs of top-level statements (unconditional)
}

func newSummary() *Summary {
	return &Summary{
		NetLocks:    map[string]lockNet{},
		Acquires:    map[string]acq{},
		TypedErrs:   map[string]token.Pos{},
		Handles:     map[string]bool{},
		ErrParams:   map[int]bool{},
		FrameParams: map[int]FrameEffect{},
		OrderParams: map[int]string{},
	}
}

// ensureSummaries computes every function summary to fixpoint.
func (pr *Program) ensureSummaries() {
	if pr.summarized {
		return
	}
	pr.ensure()
	pr.summarized = true
	ec := newErrCtx(pr)
	for _, fi := range pr.infos {
		fi.Sum.topNodes = topLevelNodes(fi.Decl.Body)
		scanHandles(ec, fi)
	}
	for round := 0; round < maxSummaryRounds; round++ {
		changed := false
		for _, fi := range pr.infos {
			if lockFactsStep(fi) {
				changed = true
			}
			if errFactsStep(ec, fi) {
				changed = true
			}
			if errParamStep(pr, fi) {
				changed = true
			}
			if frameFactsStep(fi) {
				changed = true
			}
			if orderFactsStep(fi) {
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// topLevelNodes marks the expressions of statements sitting directly in
// the body list: effects there are unconditional on every path that does
// not return earlier.
func topLevelNodes(body *ast.BlockStmt) map[ast.Node]bool {
	top := map[ast.Node]bool{}
	for _, stmt := range body.List {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			top[ast.Unparen(s.X)] = true
		case *ast.DeferStmt:
			top[s.Call] = true
		case *ast.AssignStmt:
			for _, r := range s.Rhs {
				top[ast.Unparen(r)] = true
			}
		}
	}
	return top
}

// ---- lock facts ----

func lockFactsStep(fi *FuncInfo) bool {
	p, sum := fi.Pass, fi.Sum
	changed := false

	// Transitive acquisitions (synchronous flow only).
	addAcq := func(class string, pos token.Pos, iface bool) {
		old, ok := sum.Acquires[class]
		switch {
		case !ok:
			sum.Acquires[class] = acq{pos, iface}
			changed = true
		case old.viaIface && !iface:
			sum.Acquires[class] = acq{pos, false}
			changed = true
		}
	}
	for _, ls := range fi.Locks {
		if ls.InLit || ls.InGo || !ls.acquires {
			continue
		}
		if class, _ := lockClassOf(p, fi.recvObj, ls.x); class != "" {
			addAcq(class, ls.Call.Pos(), false)
		}
	}
	for _, cs := range fi.Calls {
		if cs.InLit || cs.InGo {
			continue
		}
		for _, callee := range cs.Callees {
			for class, a := range callee.Sum.Acquires {
				addAcq(class, cs.Call.Pos(), a.viaIface || cs.Iface)
			}
		}
	}

	// Net effect at return: top-level lock statements plus top-level
	// static calls to module functions with their own net effect. A
	// callee's receiver-relative path carries over only when it is called
	// on this function's own receiver.
	newNet := map[string]lockNet{}
	add := func(class, rel string, d int) {
		if class == "" {
			return
		}
		net := newNet[class]
		net.n += d
		net.recvRel = cmp.Or(net.recvRel, rel)
		newNet[class] = net
	}
	for _, ls := range fi.Locks {
		if ls.InLit || ls.InGo || !sum.topNodes[ls.Call] {
			continue
		}
		class, rel := lockClassOf(p, fi.recvObj, ls.x)
		if ls.acquires {
			add(class, rel, 1)
		} else {
			add(class, rel, -1)
		}
	}
	for _, cs := range fi.Calls {
		if cs.InLit || cs.InGo || cs.Iface || len(cs.Callees) != 1 || !sum.topNodes[cs.Call] {
			continue
		}
		onRecv := false
		if sel, ok := ast.Unparen(cs.Call.Fun).(*ast.SelectorExpr); ok && fi.recvObj != nil {
			id, ok := ast.Unparen(sel.X).(*ast.Ident)
			onRecv = ok && objOf(p.Info, id) == fi.recvObj
		}
		for class, net := range cs.Callees[0].Sum.NetLocks {
			if !onRecv {
				net.recvRel = ""
			}
			add(class, net.recvRel, net.n)
		}
	}
	for class, net := range newNet {
		net.n = max(-lockNetClamp, min(net.n, lockNetClamp))
		if net.n == 0 {
			delete(newNet, class)
		} else {
			newNet[class] = net
		}
	}
	if !maps.Equal(sum.NetLocks, newNet) {
		sum.NetLocks = newNet
		changed = true
	}
	return changed
}

// ---- typed-error facts ----

// errFamily is one typed error family the errflow check tracks.
type errFamily struct {
	name     string // display name ("checkpoint.ErrStorageDegraded")
	pkgPath  string
	sentinel string // package-level sentinel var
	typeName string // optional concrete error type in the same package
}

var errFamilies = []errFamily{
	{"checkpoint.ErrStorageDegraded", modulePath + "/internal/checkpoint", "ErrStorageDegraded", ""},
	{"checkpoint.ErrStorageLost", modulePath + "/internal/checkpoint", "ErrStorageLost", ""},
	{"wire.ErrAdmission", modulePath + "/internal/wire", "ErrAdmission", "AdmissionError"},
	{"convexagreement.ErrSessionPoisoned", modulePath, "ErrSessionPoisoned", ""},
	{"supervisor.ErrStalled", modulePath + "/internal/supervisor", "ErrStalled", ""},
}

// errCtx resolves the family sentinels and types against the loaded
// packages once per program.
type errCtx struct {
	prog     *Program
	sentinel map[types.Object]string
	typeObj  map[types.Object]string
}

func newErrCtx(pr *Program) *errCtx {
	ec := &errCtx{prog: pr, sentinel: map[types.Object]string{}, typeObj: map[types.Object]string{}}
	for _, p := range pr.Passes {
		for _, fam := range errFamilies {
			if p.Pkg.Path() != fam.pkgPath {
				continue
			}
			if o := p.Pkg.Scope().Lookup(fam.sentinel); o != nil {
				ec.sentinel[o] = fam.name
			}
			if fam.typeName != "" {
				if o := p.Pkg.Scope().Lookup(fam.typeName); o != nil {
					ec.typeObj[o] = fam.name
				}
			}
		}
	}
	return ec
}

// famOfType maps a type to its family when it is (a pointer to) a family
// error type.
func (ec *errCtx) famOfType(t types.Type) string {
	for {
		ptr, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = ptr.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return ec.typeObj[n.Obj()]
	}
	return ""
}

// famsOf computes which families the value of expr can carry, given the
// current taint of local variables.
func (ec *errCtx) famsOf(fi *FuncInfo, tainted map[types.Object]map[string]bool, expr ast.Expr) map[string]bool {
	p := fi.Pass
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		if obj := objOf(p.Info, e); obj != nil {
			if fam := ec.sentinel[obj]; fam != "" {
				return map[string]bool{fam: true}
			}
			return tainted[obj]
		}
	case *ast.SelectorExpr:
		if obj := objOf(p.Info, e.Sel); obj != nil {
			if fam := ec.sentinel[obj]; fam != "" {
				return map[string]bool{fam: true}
			}
			return tainted[obj]
		}
	case *ast.UnaryExpr:
		return ec.famsOf(fi, tainted, e.X)
	case *ast.CompositeLit:
		if tv, ok := p.Info.Types[e]; ok {
			if fam := ec.famOfType(tv.Type); fam != "" {
				return map[string]bool{fam: true}
			}
		}
	case *ast.CallExpr:
		fn := calleeFunc(p.Info, e)
		if fn == nil {
			return nil
		}
		switch funcPkgPath(fn) {
		case "fmt":
			if fn.Name() == "Errorf" && fmtWrapsError(e) {
				return ec.famsOfArgs(fi, tainted, e.Args)
			}
			return nil
		case "errors":
			if fn.Name() == "Join" {
				return ec.famsOfArgs(fi, tainted, e.Args)
			}
			return nil
		}
		if callee := ec.prog.infoOf(fn); callee != nil {
			out := map[string]bool{}
			for fam := range callee.Sum.TypedErrs {
				out[fam] = true
			}
			if len(out) > 0 {
				return out
			}
			return nil
		}
		// a stdlib-or-unresolved call returning a family-typed value
		if sig, ok := fn.Type().(*types.Signature); ok {
			for i := 0; i < sig.Results().Len(); i++ {
				if fam := ec.famOfType(sig.Results().At(i).Type()); fam != "" {
					return map[string]bool{fam: true}
				}
			}
		}
	}
	return nil
}

func (ec *errCtx) famsOfArgs(fi *FuncInfo, tainted map[types.Object]map[string]bool, args []ast.Expr) map[string]bool {
	var out map[string]bool
	for _, a := range args {
		for fam := range ec.famsOf(fi, tainted, a) {
			if out == nil {
				out = map[string]bool{}
			}
			out[fam] = true
		}
	}
	return out
}

// fmtWrapsError reports whether a fmt.Errorf call's format literal
// contains %w (wrapping preserves the family; %v/%s collapse it).
func fmtWrapsError(call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
	return ok && strings.Contains(lit.Value, "%w")
}

// errFactsStep recomputes which families fi's error results can carry.
func errFactsStep(ec *errCtx, fi *FuncInfo) bool {
	if !returnsError(fi.Fn) {
		return false
	}
	p := fi.Pass
	tainted := errTaint(ec, fi)
	changed := false
	add := func(fam string, pos token.Pos) {
		if _, ok := fi.Sum.TypedErrs[fam]; !ok {
			fi.Sum.TypedErrs[fam] = pos
			changed = true
		}
	}
	var namedResults []types.Object
	if res := fi.Decl.Type.Results; res != nil {
		for _, field := range res.List {
			for _, name := range field.Names {
				if obj := p.Info.Defs[name]; obj != nil {
					namedResults = append(namedResults, obj)
				}
			}
		}
	}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			if len(x.Results) == 0 {
				for _, obj := range namedResults {
					for fam := range tainted[obj] {
						add(fam, x.Pos())
					}
				}
				return true
			}
			for _, r := range x.Results {
				for fam := range ec.famsOf(fi, tainted, r) {
					add(fam, r.Pos())
				}
			}
		}
		return true
	})
	return changed
}

// errTaint runs the small flow-insensitive taint loop over fi's
// assignments: an identifier assigned an expression carrying a family
// carries that family.
func errTaint(ec *errCtx, fi *FuncInfo) map[types.Object]map[string]bool {
	p := fi.Pass
	tainted := map[types.Object]map[string]bool{}
	taint := func(obj types.Object, fams map[string]bool) bool {
		if obj == nil || len(fams) == 0 {
			return false
		}
		cur := tainted[obj]
		if cur == nil {
			cur = map[string]bool{}
			tainted[obj] = cur
		}
		grew := false
		for fam := range fams {
			if !cur[fam] {
				cur[fam] = true
				grew = true
			}
		}
		return grew
	}
	lhsObj := func(e ast.Expr) types.Object {
		switch l := ast.Unparen(e).(type) {
		case *ast.Ident:
			return objOf(p.Info, l)
		case *ast.SelectorExpr:
			return objOf(p.Info, l.Sel)
		}
		return nil
	}
	for sub := 0; sub < 4; sub++ {
		grew := false
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
				fams := ec.famsOf(fi, tainted, as.Rhs[0])
				for _, l := range as.Lhs {
					if tv, ok := p.Info.Types[l]; ok && isErrorType(tv.Type) {
						if taint(lhsObj(l), fams) {
							grew = true
						}
					}
				}
				return true
			}
			for i := range as.Lhs {
				if i >= len(as.Rhs) {
					break
				}
				if taint(lhsObj(as.Lhs[i]), ec.famsOf(fi, tainted, as.Rhs[i])) {
					grew = true
				}
			}
			return true
		})
		if !grew {
			break
		}
	}
	return tainted
}

func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}

// scanHandles records which families fi tests with errors.Is/As or a
// direct sentinel comparison (function literals included: helpers often
// classify inside closures).
func scanHandles(ec *errCtx, fi *FuncInfo) {
	p := fi.Pass
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			fn := calleeFunc(p.Info, x)
			if fn == nil || funcPkgPath(fn) != "errors" || len(x.Args) < 2 {
				return true
			}
			switch fn.Name() {
			case "Is":
				if obj := exprObj(p.Info, x.Args[1]); obj != nil {
					if fam := ec.sentinel[obj]; fam != "" {
						fi.Sum.Handles[fam] = true
					}
				}
			case "As":
				if tv, ok := p.Info.Types[x.Args[1]]; ok {
					if fam := ec.famOfType(tv.Type); fam != "" {
						fi.Sum.Handles[fam] = true
					}
				}
			}
		case *ast.BinaryExpr:
			if x.Op == token.EQL || x.Op == token.NEQ {
				for _, side := range []ast.Expr{x.X, x.Y} {
					if obj := exprObj(p.Info, side); obj != nil {
						if fam := ec.sentinel[obj]; fam != "" {
							fi.Sum.Handles[fam] = true
						}
					}
				}
			}
		}
		return true
	})
}

// paramObjs maps the parameters of fi whose type satisfies want to their
// positions in the call's argument list.
func paramObjs(fi *FuncInfo, want func(types.Type) bool) map[types.Object]int {
	out := map[types.Object]int{}
	idx := 0
	for _, field := range fi.Decl.Type.Params.List {
		for _, name := range field.Names {
			if obj := fi.Pass.Info.Defs[name]; obj != nil && want(obj.Type()) {
				out[obj] = idx
			}
			idx++
		}
		if len(field.Names) == 0 {
			idx++
		}
	}
	return out
}

// errParamStep marks error parameters the function preserves: returned
// (directly or under %w/errors.Join), stashed in a field, container, or
// channel, panicked, or forwarded to a callee that itself preserves the
// corresponding parameter (transitive, to fixpoint). A preserved error
// is still reachable by a later errors.Is/As, so handing a typed error
// to such a function is propagation, not a sink.
func errParamStep(pr *Program, fi *FuncInfo) bool {
	params := paramObjs(fi, isErrorType)
	if len(params) == 0 {
		return false
	}
	p, sum := fi.Pass, fi.Sum
	changed := false
	preserve := func(obj types.Object) {
		if idx, ok := params[obj]; ok && !sum.ErrParams[idx] {
			sum.ErrParams[idx] = true
			changed = true
		}
	}
	// carrier resolves expr to a tracked parameter it carries intact:
	// the parameter itself, or the parameter under a %w-wrap or Join.
	var carrier func(e ast.Expr) types.Object
	carrier = func(e ast.Expr) types.Object {
		if obj := exprObj(p.Info, e); obj != nil {
			if _, ok := params[obj]; ok {
				return obj
			}
		}
		call, ok := ast.Unparen(e).(*ast.CallExpr)
		if !ok {
			return nil
		}
		fn := calleeFunc(p.Info, call)
		if fn == nil {
			return nil
		}
		switch funcPkgPath(fn) {
		case "fmt":
			if fn.Name() == "Errorf" && fmtWrapsError(call) {
				for _, a := range call.Args[1:] {
					if o := carrier(a); o != nil {
						return o
					}
				}
			}
		case "errors":
			if fn.Name() == "Join" {
				for _, a := range call.Args {
					if o := carrier(a); o != nil {
						return o
					}
				}
			}
		}
		return nil
	}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			for _, r := range x.Results {
				if o := carrier(r); o != nil {
					preserve(o)
				}
			}
		case *ast.AssignStmt:
			for i, r := range x.Rhs {
				o := carrier(r)
				if o == nil || i >= len(x.Lhs) {
					continue
				}
				switch ast.Unparen(x.Lhs[i]).(type) {
				case *ast.SelectorExpr, *ast.IndexExpr:
					preserve(o)
				}
			}
		case *ast.SendStmt:
			if o := carrier(x.Value); o != nil {
				preserve(o)
			}
		case *ast.CompositeLit:
			for _, el := range x.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				if o := carrier(el); o != nil {
					preserve(o)
				}
			}
		case *ast.CallExpr:
			fn := calleeFunc(p.Info, x)
			if fn == nil {
				if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
					if b, ok := p.Info.Uses[id].(*types.Builtin); ok {
						switch b.Name() {
						case "panic":
							for _, a := range x.Args {
								if o := carrier(a); o != nil {
									preserve(o)
								}
							}
						case "append":
							for _, a := range x.Args[1:] {
								if o := carrier(a); o != nil {
									preserve(o)
								}
							}
						}
					}
				}
				return true
			}
			if mfi := pr.infoOf(fn); mfi != nil {
				for i, a := range x.Args {
					o := carrier(a)
					if o == nil {
						continue
					}
					if mfi.Sum.ErrParams[i] {
						preserve(o)
					}
				}
			}
		}
		return true
	})
	return changed
}

// exprObj resolves an ident or selector expression to its object.
func exprObj(info *types.Info, e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return objOf(info, x)
	case *ast.SelectorExpr:
		return objOf(info, x.Sel)
	}
	return nil
}

// ---- frame facts ----

// frameFactsStep classifies what fi does to each of its frame parameters:
// a direct Release (always, if it is a top-level statement; maybe
// otherwise), a retain as frameRetains recognises it, and — transitively —
// whatever the static callees it hands the parameter to do with it.
func frameFactsStep(fi *FuncInfo) bool {
	params := paramObjs(fi, isFrameType)
	if len(params) == 0 {
		return false
	}
	p, sum := fi.Pass, fi.Sum
	changed := false
	merge := func(e ast.Expr, eff FrameEffect) {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return
		}
		idx, ok := params[objOf(p.Info, id)]
		if !ok {
			return
		}
		cur := sum.FrameParams[idx]
		next := FrameEffect{Release: max(cur.Release, eff.Release), Retains: cur.Retains || eff.Retains}
		if next != cur {
			sum.FrameParams[idx] = next
			changed = true
		}
	}
	frameRetains(p, fi.Decl.Body, func(e ast.Expr, _ string) { merge(e, FrameEffect{Retains: true}) })
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.CallExpr:
			if _, ok := frameReleaseOp(p, x); ok {
				mode := ReleaseMaybe
				if sum.topNodes[x] {
					mode = ReleaseAlways
				}
				merge(ast.Unparen(x.Fun).(*ast.SelectorExpr).X, FrameEffect{Release: mode})
			}
		}
		return true
	})
	for _, cs := range fi.Calls {
		if cs.InLit || cs.InGo || cs.Iface || len(cs.Callees) != 1 {
			continue
		}
		for argIdx, arg := range cs.Call.Args {
			eff, ok := cs.Callees[0].Sum.FrameParams[argIdx]
			if !ok {
				continue
			}
			if eff.Release == ReleaseAlways && !sum.topNodes[cs.Call] {
				eff.Release = ReleaseMaybe
			}
			merge(arg, eff)
		}
	}
	return changed
}

// ---- deterministic serialization (summary-cache determinism test) ----

// SummaryJSON renders every function summary in a deterministic JSON
// form: map keys sorted, positions as "file.go:line".
func (pr *Program) SummaryJSON() ([]byte, error) {
	pr.ensureSummaries()
	posStr := func(pos token.Pos) string {
		if !pos.IsValid() {
			return ""
		}
		p := pr.Fset.Position(pos)
		return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
	}
	out := map[string]any{}
	for _, fi := range pr.infos {
		s := fi.Sum
		entry := map[string]any{}
		if len(s.NetLocks) > 0 {
			m := map[string]string{}
			for class, net := range s.NetLocks {
				m[class] = strings.TrimSpace(fmt.Sprintf("%+d %s", net.n, net.recvRel))
			}
			entry["netLocks"] = m
		}
		if len(s.Acquires) > 0 {
			m := map[string]string{}
			for class, a := range s.Acquires {
				tag := ""
				if a.viaIface {
					tag = " (via interface)"
				}
				m[class] = posStr(a.pos) + tag
			}
			entry["acquires"] = m
		}
		if len(s.TypedErrs) > 0 {
			m := map[string]string{}
			for fam, pos := range s.TypedErrs {
				m[fam] = posStr(pos)
			}
			entry["typedErrs"] = m
		}
		if len(s.Handles) > 0 {
			var fams []string
			for fam := range s.Handles {
				fams = append(fams, fam)
			}
			sort.Strings(fams)
			entry["handles"] = fams
		}
		if len(s.ErrParams) > 0 {
			var idxs []int
			for idx := range s.ErrParams {
				idxs = append(idxs, idx)
			}
			sort.Ints(idxs)
			entry["errParams"] = idxs
		}
		if len(s.FrameParams) > 0 {
			m := map[string]any{}
			for idx, eff := range s.FrameParams {
				m[fmt.Sprintf("%d", idx)] = map[string]any{"release": eff.Release.String(), "retains": eff.Retains}
			}
			entry["frameParams"] = m
		}
		if len(s.OrderParams) > 0 {
			m := map[string]string{}
			for idx, sink := range s.OrderParams {
				m[fmt.Sprintf("%d", idx)] = sink
			}
			entry["orderParams"] = m
		}
		if len(entry) > 0 {
			out[displayName(fi.Fn)] = entry
		}
	}
	return json.MarshalIndent(out, "", "  ")
}
