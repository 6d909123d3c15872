// Package lint implements calint, the repository's protocol-invariant
// static analyzer (cmd/calint is the CLI; `make lint` and the `calint`
// stage of scripts/ci.sh are the gates).
//
// The paper's guarantees are only reproducible because every run in this
// repository is deterministic: faultnet replays fault schedules from a
// seed, a checkpointed Session replays its write-ahead log byte-exactly,
// and FNV transcript digests must match across identically-seeded dual
// runs. Those properties rest on coding invariants that the compiler does
// not enforce. Each of the eight checks encodes one of them over the
// go/ast + go/types view of the module:
//
//	detrand       global math/rand calls that bypass seeded *rand.Rand replay
//	wallclock     time.Now/Since/... inside round-driven packages
//	maporder      map iteration order flowing into hashes, wire bytes, sends, or out of the function unsorted
//	errdrop       discarded errors on checkpoint/transport/WAL durability calls
//	errflow       typed error families collapsed or discarded at a call
//	mutexhold     blocking calls (Exchange, network I/O, sleeps) under a mutex
//	lockorder     lock-acquisition cycles across packages (deadlock)
//	bufownership  pooled wire.Frame released twice, used after Release, or released after a handoff
//
// The analyzer has three layers. Facts: a module-aware call graph
// (program.go) and per-function summaries computed to fixpoint over it
// (summary.go) — lock effects, typed-error families, frame-parameter
// effects, slice parameters whose order reaches a sink. The flow interpreter (flow.go): one flow-approximate statement
// walk that the stateful checks — mutexhold and lockorder through the
// held-lock interpretation in locks.go, bufownership directly — plug
// their events into. The checks: one file each, consulting the facts
// where a property crosses a call.
//
// Findings are suppressed with an in-source directive on the offending
// line or the line directly above it:
//
//	//calint:ignore <check>[,<check>] <reason>
//
// The reason is mandatory; a bare directive is itself reported. The
// analyzer is intentionally stdlib-only (go/ast, go/parser, go/types,
// go/build): it must run in the same hermetic environment as the tests it
// guards.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one diagnostic, positioned in module-root-relative terms so
// output is stable across checkouts.
type Finding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Message string `json:"msg"`
}

// String renders the conventional file:line:col: check: message form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Check, f.Message)
}

// Analyzer is one named invariant check. Most set Run and see one
// type-checked package at a time (reaching cross-function summaries
// through the Program every Pass is loaded into); a check whose property
// spans packages sets RunGlobal and sees the Program once per invocation.
// Contract and Example feed `calint -explain` and are the same strings
// DESIGN.md §2.7 embeds, so CLI help and design doc cannot drift apart.
type Analyzer struct {
	Name      string
	Doc       string
	Run       func(*Pass)
	RunGlobal func(*Program)
	Contract  string
	Example   string
}

// Pass is the per-package view handed to an Analyzer: the syntax trees,
// the type information, and a sink for diagnostics.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// RelPkg is the module-root-relative package directory ("" for the
	// module root, "internal/sim", ...).
	RelPkg string

	// prog is the whole-program view this pass was loaded into
	// (newProgram sets it), so per-package analyzers can consult
	// cross-function summaries.
	prog *Program

	check  string
	report func(Finding)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	p.report(Finding{
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Check:   p.check,
		Message: fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the eight checks in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		detrandAnalyzer, wallclockAnalyzer, maporderAnalyzer, errdropAnalyzer, errflowAnalyzer,
		mutexholdAnalyzer, lockorderAnalyzer, bufownershipAnalyzer,
	}
}

// AnalyzerByName resolves one analyzer, or nil.
func AnalyzerByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Run loads every package matched by patterns (go-style, rooted at the
// module: "./...", "./internal/...", "./internal/sim"), runs the given
// analyzers (nil means all) over each in-scope package, applies the
// //calint:ignore directives, and returns the surviving findings sorted
// by position. Test files are never analyzed: the invariants guard
// protocol code; tests measure time and randomize freely.
func Run(root string, patterns []string, analyzers []*Analyzer) ([]Finding, error) {
	ld, err := newLoader(root)
	if err != nil {
		return nil, err
	}
	return ld.run(patterns, analyzers)
}

func (ld *loader) run(patterns []string, analyzers []*Analyzer) ([]Finding, error) {
	if analyzers == nil {
		analyzers = Analyzers()
	}
	dirs, err := ld.expand(patterns)
	if err != nil {
		return nil, err
	}
	var perPkg, global []*Analyzer
	for _, a := range analyzers {
		if a.RunGlobal != nil {
			global = append(global, a)
		} else {
			perPkg = append(perPkg, a)
		}
	}
	// Whole-program checks need the whole module loaded even when the
	// requested patterns cover a subset; findings are still filtered to
	// the requested packages.
	loadDirs := dirs
	if len(global) > 0 {
		all, err := ld.expand([]string{"./..."})
		if err != nil {
			return nil, err
		}
		seen := map[string]bool{}
		for _, rel := range loadDirs {
			seen[rel] = true
		}
		for _, rel := range all {
			if !seen[rel] {
				loadDirs = append(loadDirs, rel)
			}
		}
	}
	for _, rel := range loadDirs {
		if _, err := ld.loadRel(rel); err != nil {
			return nil, fmt.Errorf("calint: %s: %w", relOrDot(rel), err)
		}
	}
	// Bundle every loaded pass — requested packages plus transitive
	// imports — into one Program so summaries resolve across packages.
	passes := make([]*Pass, 0, len(ld.passes))
	for _, pass := range ld.passes {
		passes = append(passes, pass)
	}
	prog := newProgram(ld.fset, passes)
	var findings []Finding
	for _, rel := range dirs {
		pass := ld.passes[rel]
		dirIdx := collectDirectives(pass.Fset, pass.Files)
		findings = append(findings, dirIdx.malformed()...)
		for _, a := range perPkg {
			if !appliesTo(a.Name, rel) {
				continue
			}
			findings = append(findings, runOne(pass, a, dirIdx)...)
		}
	}
	if len(global) > 0 {
		var allFiles []*ast.File
		for _, pass := range prog.Passes {
			allFiles = append(allFiles, pass.Files...)
		}
		combined := collectDirectives(ld.fset, allFiles)
		requested := map[string]bool{}
		for _, rel := range dirs {
			requested[rel] = true
		}
		for _, a := range global {
			findings = append(findings, runGlobal(prog, a, combined, requested)...)
		}
	}
	for i := range findings {
		findings[i].File = relativize(ld.root, findings[i].File)
	}
	sort.Slice(findings, func(i, j int) bool {
		if findings[i].File != findings[j].File {
			return findings[i].File < findings[j].File
		}
		if findings[i].Line != findings[j].Line {
			return findings[i].Line < findings[j].Line
		}
		return findings[i].Check < findings[j].Check
	})
	return findings, nil
}

// relativize rewrites an absolute file path to module-root-relative form
// so findings are stable across checkouts.
func relativize(root, file string) string {
	if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return file
}

// runGlobal executes a whole-program analyzer once, keeping only
// findings positioned in a requested, in-scope package and not
// suppressed by a directive.
func runGlobal(prog *Program, a *Analyzer, dirs directives, requested map[string]bool) []Finding {
	var out []Finding
	prog.check = a.Name
	prog.emit = func(p *Pass, f Finding) {
		if !requested[p.RelPkg] || !appliesTo(a.Name, p.RelPkg) || dirs.suppresses(f) {
			return
		}
		out = append(out, f)
	}
	a.RunGlobal(prog)
	prog.check, prog.emit = "", nil
	return out
}

// runOne executes a single analyzer over a loaded pass and filters its
// findings through the ignore directives.
func runOne(pass *Pass, a *Analyzer, dirs directives) []Finding {
	var out []Finding
	p := *pass
	p.check = a.Name
	p.report = func(f Finding) {
		if dirs.suppresses(f) {
			return
		}
		out = append(out, f)
	}
	a.Run(&p)
	return out
}

func relOrDot(rel string) string {
	if rel == "" {
		return "."
	}
	return rel
}

// ---- shared go/types helpers used by the analyzers ----

// calleeFunc resolves the function or method called by call, nil when the
// callee is not a named function (conversions, func-typed variables, ...).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// funcPkgPath returns the import path of the package that declares fn
// ("" for builtins/error.Error).
func funcPkgPath(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// recvTypeName returns the named receiver type of a method as
// (pkgpath, typename), or ("", "") for package-level functions and
// methods on unnamed types.
func recvTypeName(fn *types.Func) (pkgPath, typeName string) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return "", obj.Name()
	}
	return obj.Pkg().Path(), obj.Name()
}

// returnsError reports whether fn's final result is the builtin error.
func returnsError(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	return types.Identical(last, types.Universe.Lookup("error").Type())
}

// rootIdent walks x down to its base identifier: out → out, s.buf → s,
// m[k] → m, (*p).f → p. Returns nil when there is no base identifier.
func rootIdent(x ast.Expr) *ast.Ident {
	for {
		switch e := x.(type) {
		case *ast.Ident:
			return e
		case *ast.SelectorExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.StarExpr:
			x = e.X
		case *ast.ParenExpr:
			x = e.X
		default:
			return nil
		}
	}
}

// objOf resolves an identifier to its object (use or def).
func objOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// isModulePkg reports whether path names a package of this module.
func isModulePkg(path string) bool {
	return path == modulePath || strings.HasPrefix(path, modulePath+"/")
}
