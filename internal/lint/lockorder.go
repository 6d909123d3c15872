package lint

// lockorder: the global lock-acquisition graph. Every time a function
// acquires a lock class while holding another — directly, or through a
// callee whose call tree acquires it (interface calls resolved by CHA) —
// an ordering edge is recorded. A cycle among distinct classes is a
// potential deadlock: two goroutines taking the classes in opposite
// order wedge forever, which in this protocol means a party stops making
// progress and the paper's round model is violated. Re-acquiring the
// same class while it is held is reported only when the path is fully
// static (interface dispatch can resolve to a different instance).
//
// The diagnostic carries the witness path: each edge names the function
// and line where it was observed, so the cycle can be walked by hand.

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

var lockorderAnalyzer = &Analyzer{
	Name:      "lockorder",
	Doc:       "lock-acquisition cycles across packages (potential deadlock)",
	RunGlobal: runLockorder,
	Contract: "Every pair of lock classes must be acquired in one global order. " +
		"The engine walks each function with the flow-approximate held-lock interpreter, " +
		"adds an ordering edge whenever a class is acquired (directly or through a callee's " +
		"call tree, interface calls included) while another is held, and reports every cycle " +
		"in the resulting graph with the witness path: function and line per edge. " +
		"Re-acquiring a held class is reported when the acquisition path is static.",
	Example: `internal/tcpnet/tcpnet.go:120:2: lockorder: lock-order cycle: tcpnet.Conn.mu -> mux.Mux.mu ((*Conn).notify at tcpnet.go:120) -> tcpnet.Conn.mu ((*Mux).flush at mux.go:88, interface dispatch); acquire lock classes in one global order`,
}

// lockEdge is one observed "from held while to acquired" pair.
type lockEdge struct {
	from, to string
	pos      token.Pos // the acquisition / call site
	heldPos  token.Pos // where `from` was locked
	fi       *FuncInfo
	via      *FuncInfo // callee whose call tree acquires `to`; nil = direct
	iface    bool      // any hop of the acquisition was interface-dispatched
}

func runLockorder(pr *Program) {
	pr.ensureSummaries()
	g := &lockGraph{pr: pr, edges: map[string]map[string]lockEdge{}}
	for _, fi := range pr.infos {
		p := fi.Pass
		ev := lockEvents{
			acquire: func(call *ast.CallExpr, class string, held heldLocks) {
				g.addEdges(held, lockEdge{to: class, pos: call.Pos(), fi: fi})
			},
			// A callee whose call tree acquires a class orders it after
			// everything held at the call.
			call: func(call *ast.CallExpr, held heldLocks) {
				if len(held) == 0 {
					return
				}
				callees, iface := pr.resolveCall(p, call)
				for _, callee := range callees {
					classes := make([]string, 0, len(callee.Sum.Acquires))
					for class := range callee.Sum.Acquires {
						classes = append(classes, class)
					}
					sort.Strings(classes)
					for _, class := range classes {
						g.addEdges(held, lockEdge{to: class, pos: call.Pos(), fi: fi, via: callee,
							iface: iface || callee.Sum.Acquires[class].viaIface})
					}
				}
			},
		}
		eachBody(fi.Decl, func(body *ast.BlockStmt) { walkLocks(p, body, ev) })
	}
	g.reportSelf()
	g.reportCycles()
}

// lockGraph accumulates the ordering edges of the whole program.
type lockGraph struct {
	pr    *Program
	edges map[string]map[string]lockEdge
	selfs []lockEdge
}

// addEdges records e once per held class, as "held while e.to acquired".
// Mutexes without a class (locals, parameters) are on neither end.
func (g *lockGraph) addEdges(held heldLocks, e lockEdge) {
	if e.to == "" {
		return
	}
	for _, from := range held.sorted() {
		if from.class == "" {
			continue
		}
		e.from, e.heldPos = from.class, from.pos
		if e.from == e.to {
			// Same class re-acquired: a self-deadlock on a non-reentrant
			// mutex if the path is static; interface dispatch may reach a
			// different instance, so those stay silent.
			if !e.iface {
				g.selfs = append(g.selfs, e)
			}
			continue
		}
		m := g.edges[e.from]
		if m == nil {
			m = map[string]lockEdge{}
			g.edges[e.from] = m
		}
		if _, ok := m[e.to]; !ok {
			m[e.to] = e
		}
	}
}

// reportSelf emits the static same-class re-acquisitions.
func (g *lockGraph) reportSelf() {
	seen := map[string]bool{}
	for _, e := range g.selfs {
		key := fmt.Sprintf("%s@%d", e.from, e.pos)
		if seen[key] {
			continue
		}
		seen[key] = true
		detail := ""
		if e.via != nil {
			detail = fmt.Sprintf(" via %s", displayName(e.via.Fn))
		}
		g.pr.Reportf(e.fi.Pass, e.pos,
			"lock class %s acquired%s while already held (held since line %d): self-deadlock on a non-reentrant mutex",
			e.from, detail, g.pr.Fset.Position(e.heldPos).Line)
	}
}

// reportCycles finds cycles among distinct classes and reports one
// finding per canonical cycle with the full witness path.
func (g *lockGraph) reportCycles() {
	classes := make([]string, 0, len(g.edges))
	for c := range g.edges {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	reported := map[string]bool{}
	for _, start := range classes {
		if cycle := g.findCycle(start); cycle != nil {
			key := canonicalCycle(cycle)
			if reported[key] {
				continue
			}
			reported[key] = true
			g.reportCycle(cycle)
		}
	}
}

// findCycle runs a deterministic DFS from start and returns the first
// cycle back to start as the class sequence [start, ..., last], or nil.
func (g *lockGraph) findCycle(start string) []string {
	var path []string
	visited := map[string]bool{}
	var dfs func(cur string) []string
	dfs = func(cur string) []string {
		visited[cur] = true
		path = append(path, cur)
		targets := make([]string, 0, len(g.edges[cur]))
		for to := range g.edges[cur] {
			targets = append(targets, to)
		}
		sort.Strings(targets)
		for _, to := range targets {
			if to == start {
				return append([]string(nil), path...)
			}
			if !visited[to] {
				if cycle := dfs(to); cycle != nil {
					return cycle
				}
			}
		}
		path = path[:len(path)-1]
		return nil
	}
	return dfs(start)
}

// canonicalCycle rotates the cycle so its smallest class leads, giving a
// dedup key independent of which node the DFS started from.
func canonicalCycle(cycle []string) string {
	min := 0
	for i, c := range cycle {
		if c < cycle[min] {
			min = i
		}
	}
	rotated := append(append([]string(nil), cycle[min:]...), cycle[:min]...)
	return strings.Join(rotated, "->")
}

func (g *lockGraph) reportCycle(cycle []string) {
	var hops []string
	var first lockEdge
	for i := range cycle {
		from := cycle[i]
		to := cycle[(i+1)%len(cycle)]
		e := g.edges[from][to]
		if i == 0 {
			first = e
		}
		pos := g.pr.Fset.Position(e.pos)
		detail := fmt.Sprintf("%s at %s:%d", displayName(e.fi.Fn), filepath.Base(pos.Filename), pos.Line)
		if e.via != nil {
			detail += ", via " + displayName(e.via.Fn)
		}
		if e.iface {
			detail += ", interface dispatch"
		}
		hops = append(hops, fmt.Sprintf("%s -> %s (%s)", from, to, detail))
	}
	g.pr.Reportf(first.fi.Pass, first.pos,
		"lock-order cycle: %s; acquire lock classes in one global order or break the cycle with a lock-free handoff",
		strings.Join(hops, " -> "))
}
