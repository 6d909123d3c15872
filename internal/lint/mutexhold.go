package lint

import "go/ast"

// mutexhold: blocking calls made while a sync.Mutex/RWMutex is held —
// the deadlock shape the real-network layers (tcpnet's link state
// machine, the supervisor's watchdog) are most exposed to: goroutine A
// blocks on I/O under mu while goroutine B needs mu to make the progress
// A is waiting for. The check is one question put to the held-lock
// interpretation (locks.go): at every call evaluated while the held set
// is non-empty, is it a transport exchange, network/file I/O, a sleep, or
// a WaitGroup wait? sync.Cond.Wait is exempt: holding the lock is its
// contract.
//
// The analysis is intentionally flow-approximate; a hold that is safe by
// construction (e.g. a lock protecting the I/O object itself through
// shutdown) is documented at the call site with //calint:ignore.
var mutexholdAnalyzer = &Analyzer{
	Name: "mutexhold",
	Doc:  "blocking call (Exchange, network I/O, sleep) while a mutex is held",
	Run:  runMutexhold,
}

func runMutexhold(p *Pass) {
	p.prog.ensureSummaries()
	blocking := func(call *ast.CallExpr, held heldLocks) {
		if len(held) == 0 {
			return
		}
		if desc := blockingDesc(p, call); desc != "" {
			first := held.sorted()[0]
			p.Reportf(call.Pos(), "%s blocks while %s is held (locked at line %d); release the lock before blocking or hand the work to another goroutine",
				desc, first.name, p.Fset.Position(first.pos).Line)
		}
	}
	for _, f := range p.Files {
		eachBody(f, func(body *ast.BlockStmt) {
			walkLocks(p, body, lockEvents{call: blocking})
		})
	}
}

// blockingDesc classifies a call as blocking for the purposes of this
// check. Names are matched with types where it is cheap (stdlib package
// paths) and by convention for the repository's own transports.
func blockingDesc(p *Pass, call *ast.CallExpr) string {
	fn := calleeFunc(p.Info, call)
	if fn == nil {
		return ""
	}
	path, name := funcPkgPath(fn), fn.Name()
	switch path {
	case "time":
		if name == "Sleep" {
			return "time.Sleep"
		}
	case "net":
		switch name {
		case "Dial", "DialTimeout", "Listen", "Accept", "Read", "Write", "ReadFrom", "WriteTo":
			return "net I/O (" + name + ")"
		}
	case "io":
		switch name {
		case "ReadFull", "ReadAll", "Copy", "CopyN":
			return "io." + name
		}
	case "bufio":
		switch name {
		case "Read", "ReadByte", "ReadBytes", "ReadString", "Peek", "Write", "WriteByte", "Flush":
			return "bufio I/O (" + name + ")"
		}
	case "sync":
		if _, rt := recvTypeName(fn); rt == "WaitGroup" && name == "Wait" {
			return "sync.WaitGroup.Wait"
		}
	case modulePath + "/internal/wire":
		if name == "ReadFrame" || name == "WriteFrame" {
			return "wire." + name + " (socket I/O)"
		}
	}
	switch name {
	case "Exchange", "ExchangeAll", "ExchangeNone":
		if path == modulePath+"/internal/transport" || returnsError(fn) {
			return "transport " + name
		}
	}
	return ""
}
