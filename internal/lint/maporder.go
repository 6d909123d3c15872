package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// maporder: map iteration order escaping into bytes that must replay
// exactly. Go randomizes range-over-map order per execution, so any path
// from a map range to a hash (transcript digests, Merkle roots), to wire
// encoding, or to a transport Send/Exchange/Broadcast makes two
// identically-seeded runs produce different transcripts — the exact
// property the faultnet/checkpoint dual-run digests gate on. The
// analyzer flags a range over a map when
//
//   - the loop body itself reaches a sink call, or
//   - the loop body builds up a variable (append/assign) that is later
//     passed to a sink call in the same function — or, for a slice the
//     loop appends to (a value whose element order IS the map's), handed
//     to a module function whose parameter summary says the order ends up
//     in a sink (sessmux's flush hands its session list to merge, which
//     is where the exchange happens), or ranged over by a later loop that
//     does any of this in turn, or
//   - such a slice is stored in a field or element, or returned,
//     unsorted: whoever reads it next cannot tell it is unordered.
//
// A sort.* / slices.* call on the variable in between launders the
// nondeterminism away — that is the idiomatic fix. Order-insensitive
// folds (summing counters, max/min scans, filling another map) are not
// flagged: they neither call sinks nor build an ordered value.
var maporderAnalyzer = &Analyzer{
	Name: "maporder",
	Doc:  "map iteration order flowing into hashed, encoded, or transmitted bytes, or out of the function in a slice",
	Run:  runMaporder,
}

func runMaporder(p *Pass) {
	p.prog.ensureSummaries()
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			maporderFunc(p, fd.Body)
		}
	}
}

func maporderFunc(p *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok || !isMapType(p.Info.TypeOf(rng.X)) {
			return true
		}
		mapExpr := types.ExprString(rng.X)
		if desc := loopSink(p, rng); desc != "" {
			p.Reportf(rng.For, "iterating %s in map order reaches %s; iterate over sorted keys so the bytes replay exactly", mapExpr, desc)
		} else if obj, how, _ := orderFlow(p, body, rng.End(), taintedObjects(p, rng), true); how != "" {
			p.Reportf(rng.For, "%s is built by iterating %s in map order and then %s; sort it first (or iterate over sorted keys) so the bytes replay exactly",
				obj.Name(), mapExpr, how)
		}
		return true
	})
}

// loopSink returns the first sink a loop body calls: the sequence of
// such calls follows the iteration order whatever they are passed.
func loopSink(p *Pass, rng *ast.RangeStmt) string {
	desc := ""
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok && desc == "" {
			desc = sinkDesc(p, c)
		}
		return desc == ""
	})
	return desc
}

// orderFlow follows iteration order from its source — the variables in
// tainted, true for one whose element order is the source's — through the
// statements of body after pos (in source order) and reports the first
// place it matters: a tainted variable referenced by a sink call, handed
// to a module function whose parameter summary says it reaches one, or
// ranged over by a loop that calls a sink (sink names where the bytes
// end up); with escapes set, also an ordered slice stored in a field or
// element or returned, where whoever reads it next cannot tell it is
// unordered (sink is ""). A sort.* / slices.* call on a variable launders
// it, and a loop ranging over an ordered variable taints what it builds
// in turn. how is "" when the order goes nowhere.
func orderFlow(p *Pass, body *ast.BlockStmt, pos token.Pos, tainted map[types.Object]bool, escapes bool) (who types.Object, how, sink string) {
	ordered := func(e ast.Expr) types.Object {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			if obj := objOf(p.Info, id); tainted[obj] {
				return obj
			}
		}
		return nil
	}
	found := func(obj types.Object, verb, desc string) {
		if how == "" {
			who, how, sink = obj, verb+desc, desc
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if how != "" || len(tainted) == 0 || n == nil || n.End() <= pos {
			return false
		}
		if n.Pos() <= pos {
			return true // a statement enclosing the source
		}
		switch x := n.(type) {
		case *ast.RangeStmt:
			if obj := ordered(x.X); obj != nil {
				if desc := loopSink(p, x); desc != "" {
					found(obj, "ranged over by a loop that reaches ", desc)
				}
				for o, appended := range taintedObjects(p, x) {
					tainted[o] = tainted[o] || appended
				}
			}
		case *ast.CallExpr:
			refs := referencedTainted(p, x, tainted)
			if len(refs) == 0 {
				break
			}
			if path := funcPkgPath(calleeFunc(p.Info, x)); path == "sort" || path == "slices" {
				for _, o := range refs {
					delete(tainted, o)
				}
			} else if desc := sinkDesc(p, x); desc != "" {
				found(refs[0], "passed to ", desc)
			} else if callees, iface := p.prog.resolveCall(p, x); !iface && len(callees) == 1 {
				for i, arg := range x.Args {
					if obj, desc := ordered(arg), callees[0].Sum.OrderParams[i]; obj != nil && desc != "" {
						found(obj, "passed to "+displayName(callees[0].Fn)+", whose parameter reaches ", desc)
					}
				}
			}
		case *ast.AssignStmt:
			for i, r := range x.Rhs {
				if obj := ordered(r); obj != nil && escapes && i < len(x.Lhs) {
					switch ast.Unparen(x.Lhs[i]).(type) {
					case *ast.SelectorExpr, *ast.IndexExpr:
						found(obj, "stored unsorted in "+types.ExprString(x.Lhs[i]), "")
					}
				}
			}
		case *ast.ReturnStmt:
			for _, r := range x.Results {
				if obj := ordered(r); obj != nil && escapes {
					found(obj, "returned unsorted", "")
				}
			}
		}
		return true
	})
	return who, how, sink
}

// orderFactsStep computes which of fi's slice parameters carry their
// element order into a sink (Summary.OrderParams): the parameter is the
// source orderFlow follows through the whole body.
func orderFactsStep(fi *FuncInfo) bool {
	changed := false
	isSlice := func(t types.Type) bool { _, ok := t.Underlying().(*types.Slice); return ok }
	for obj, idx := range paramObjs(fi, isSlice) {
		if fi.Sum.OrderParams[idx] != "" {
			continue
		}
		if _, _, sink := orderFlow(fi.Pass, fi.Decl.Body, fi.Decl.Body.Lbrace, map[types.Object]bool{obj: true}, false); sink != "" {
			fi.Sum.OrderParams[idx] = sink
			changed = true
		}
	}
	return changed
}

// isMapType reports whether t's core type is a map.
func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// taintedObjects collects the objects assigned or appended to inside the
// range body (out = append(out, ...), buf[k] = v, s.field = v → s). The
// value is true for a variable the loop appends to: a slice whose element
// order is the iteration order.
func taintedObjects(p *Pass, rng *ast.RangeStmt) map[types.Object]bool {
	tainted := map[types.Object]bool{}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range asg.Lhs {
			id := rootIdent(lhs)
			if id == nil || id.Name == "_" {
				continue
			}
			if obj := objOf(p.Info, id); obj != nil {
				appended := id == lhs && len(asg.Rhs) == len(asg.Lhs) && isAppend(p, asg.Rhs[i])
				tainted[obj] = tainted[obj] || appended
			}
		}
		return true
	})
	// The loop variables themselves are not interesting taints.
	for _, v := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := v.(*ast.Ident); ok && id != nil {
			delete(tainted, objOf(p.Info, id))
		}
	}
	return tainted
}

// isAppend reports whether e is a call of the append builtin.
func isAppend(p *Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := p.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// referencedTainted returns the tainted objects referenced anywhere in
// the call expression (receiver chain included).
func referencedTainted(p *Pass, call *ast.CallExpr, tainted map[types.Object]bool) []types.Object {
	var out []types.Object
	seen := map[types.Object]bool{}
	ast.Inspect(call, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			obj := objOf(p.Info, id)
			if _, hit := tainted[obj]; hit && !seen[obj] {
				seen[obj] = true
				out = append(out, obj)
			}
		}
		return true
	})
	return out
}

// sinkDesc classifies a call as order-sensitive: hashing, wire encoding,
// WAL appends, or transport sends. Empty string means not a sink.
func sinkDesc(p *Pass, call *ast.CallExpr) string {
	fn := calleeFunc(p.Info, call)
	if fn == nil {
		return ""
	}
	path, name := funcPkgPath(fn), fn.Name()
	// Methods promoted from embedded interfaces carry the embedding
	// package (hash.Hash.Write is declared by io.Writer); classify by the
	// receiver expression's named type instead when it has one.
	if rp := recvExprPkg(p, call); rp != "" {
		path = rp
	}
	switch path {
	case modulePath + "/internal/hashing", "crypto/sha256", "hash/fnv", "hash":
		return "hashing (" + shortPkg(path) + "." + name + ")"
	case modulePath + "/internal/merkle":
		return "Merkle construction (merkle." + name + ")"
	case modulePath + "/internal/wire":
		// Only the encoding half is order-sensitive; decoding a payload
		// with wire.NewReader inside a map loop is fine.
		if _, rt := recvTypeName(fn); rt == "Writer" || name == "NewWriter" || name == "WriteFrame" {
			return "wire encoding (wire." + name + ")"
		}
	case modulePath + "/internal/checkpoint":
		if strings.HasPrefix(name, "Append") {
			return "the write-ahead log (checkpoint." + name + ")"
		}
	case "sync": // sync.Cond.Broadcast et al. are not network sends
		return ""
	}
	switch name {
	case "Exchange", "ExchangeAll", "ExchangeVec", "Broadcast", "Send":
		return "a transport send (" + name + ")"
	}
	return ""
}

// recvExprPkg returns the package of the named type of the receiver
// expression in a method call ("" for package-level calls and unnamed
// receivers).
func recvExprPkg(p *Pass, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if s, ok := p.Info.Selections[sel]; !ok || s == nil {
		return "" // package-qualified call, not a method
	}
	t := p.Info.TypeOf(sel.X)
	if t == nil {
		return ""
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path()
}

// shortPkg returns the last path element of an import path.
func shortPkg(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
