package main

import (
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"

	ca "convexagreement"
)

// party is what -debug-addr publishes of a running party: its transport
// while a mesh is up, and in supervised mode the health line of the
// attempt in progress. Every field is read under mu by the debug server's
// handlers and written under it by the party.
type party struct {
	mu     sync.Mutex
	tr     *ca.TCPTransport
	health func() string
}

// setTransport publishes tr (nil: no mesh up).
func (p *party) setTransport(tr *ca.TCPTransport) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.tr = tr
}

// setHealth publishes the health line health computes.
func (p *party) setHealth(health func() string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.health = health
}

// snapshot is what p publishes now: its transport (nil: no mesh up) and
// health line (nil: not supervised).
func (p *party) snapshot() (*ca.TCPTransport, func() string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.tr, p.health
}

// published is the party the expvar variables read: expvar's registry is
// the process's, and a process runs one party.
var (
	published   atomic.Pointer[party]
	publishVars sync.Once
)

// The expvar names -debug-addr serves under /debug/vars, beside expvar's
// own cmdline and memstats. Each reads null while there is nothing to
// report: no party, no mesh up, or (the health line) not supervised.
const (
	varDemotions   = "catcp.demotions"
	varFaulty      = "catcp.faulty"
	varFrontierGap = "catcp.frontier_gap"
	varHealth      = "catcp.health"
)

// publish registers the party's variables with expvar, once per process.
func publish() {
	publishVars.Do(func() {
		fromTransport := func(get func(tr *ca.TCPTransport) any) expvar.Func {
			return func() any {
				if p := published.Load(); p != nil {
					if tr, _ := p.snapshot(); tr != nil {
						return get(tr)
					}
				}
				return nil
			}
		}
		expvar.Publish(varDemotions, fromTransport(func(tr *ca.TCPTransport) any { return tr.Demotions() }))
		expvar.Publish(varFaulty, fromTransport(func(tr *ca.TCPTransport) any { return append([]int{}, tr.Faulty()...) })) // [] for none
		expvar.Publish(varFrontierGap, fromTransport(func(tr *ca.TCPTransport) any { return tr.FrontierGap() }))
		expvar.Publish(varHealth, expvar.Func(func() any {
			if p := published.Load(); p != nil {
				if _, health := p.snapshot(); health != nil {
					return health()
				}
			}
			return nil
		}))
	})
}

// serveDebug serves expvar's /debug/vars and net/http/pprof's
// /debug/pprof/ on addr for p, on a mux of its own (never
// http.DefaultServeMux), logging the address it listens on. stop closes
// the server and returns once it has stopped serving.
func serveDebug(addr string, p *party, stderr io.Writer) (stop func(), err error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	published.Store(p)
	publish()
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(l) // returns ErrServerClosed once stop closes srv
	}()
	fmt.Fprintf(stderr, "catcp: debug server on %s\n", l.Addr())
	return func() {
		srv.Close()
		<-served
		published.CompareAndSwap(p, nil)
	}, nil
}
