package lint

import (
	"go/ast"
)

// errdrop: discarded errors on the calls whose failure breaks the
// durability or synchrony story. A dropped checkpoint.Append* error means
// a round the caller believes is durable was never fsync'd — the resumed
// party replays a different prefix than it executed. A dropped
// Exchange error desynchronizes the lock-step round schedule. A dropped
// Close/Sync on a WAL file can swallow the write-back failure that the
// fsync discipline exists to surface. Scope is deliberately narrow (this
// is not errcheck): only the checkpoint package, transport exchange
// methods, and os.File Close/Sync are flagged, and only when the call's
// entire result list is discarded as a bare statement. Assigning the
// error to the blank identifier (`_ = f.Close()`) is an explicit,
// greppable acknowledgment and is not flagged; deferred cleanup closes
// are likewise conventional and exempt.
var errdropAnalyzer = &Analyzer{
	Name: "errdrop",
	Doc:  "discarded error from checkpoint/transport/WAL durability calls",
	Run:  runErrdrop,
}

func runErrdrop(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := stmt.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			if desc := errdropDesc(p, call); desc != "" {
				p.Reportf(call.Pos(), "%s returns an error that is silently dropped; handle it or acknowledge with `_ = ...`", desc)
			}
			return true
		})
	}
}

// errdropDesc classifies a call as a guarded durability/synchrony call
// whose error must not be dropped. Empty string means out of scope.
func errdropDesc(p *Pass, call *ast.CallExpr) string {
	fn := calleeFunc(p.Info, call)
	if fn == nil || !returnsError(fn) {
		return ""
	}
	name := fn.Name()
	if funcPkgPath(fn) == modulePath+"/internal/checkpoint" {
		return "checkpoint." + name
	}
	if rp, rt := recvTypeName(fn); rp == "os" && rt == "File" && (name == "Close" || name == "Sync") {
		return "(*os.File)." + name
	}
	switch name {
	case "Exchange", "ExchangeAll", "ExchangeNone":
		return "transport " + name
	}
	return ""
}
