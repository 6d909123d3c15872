package main

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	ca "convexagreement"
)

// delta is the synchrony bound every mesh is dialed with. No message delay
// is injected on loopback, so a round closes when the last peer's frame
// arrives (processor + syscall time) and Δ is never reached; a run in which
// it were reached would show as a demotion, which the correctness gate
// rejects.
const delta = 5 * time.Second

// dialAll binds n loopback listeners and runs dial for every party at
// once, as DialTCP and tcpnet.Dial both need: each blocks until the whole
// mesh is up. On any failure the links that did come up are closed.
func dialAll[T io.Closer](n int, dial func(id int, addrs []string, ln net.Listener) (T, error)) ([]T, error) {
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners[:i] {
				_ = l.Close() // already failing; the listen error is the story
			}
			return nil, fmt.Errorf("listen for party %d: %w", i, err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	links := make([]T, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			links[i], errs[i] = dial(i, addrs, listeners[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			continue
		}
		for j, l := range links {
			if errs[j] == nil {
				_ = l.Close() // already failing; the dial error is the story
			}
		}
		return nil, fmt.Errorf("dial party %d: %w", i, err)
	}
	return links, nil
}

// mesh is one loopback TCP full mesh, all n parties hosted in this process.
type mesh struct {
	trs []*ca.TCPTransport
}

// dialMesh dials the full mesh through the public API with the default
// RejoinWindow (rejoin buffering on: the recoverable configuration).
func dialMesh(n, t int) (*mesh, error) {
	trs, err := dialAll(n, func(id int, addrs []string, ln net.Listener) (*ca.TCPTransport, error) {
		return ca.DialTCP(ca.TCPConfig{ID: id, Addrs: addrs, T: t, Delta: delta, Listener: ln})
	})
	if err != nil {
		return nil, err
	}
	return &mesh{trs: trs}, nil
}

func (m *mesh) close() {
	for _, tr := range m.trs {
		_ = tr.Close() // teardown; nothing durable rides on the mesh
	}
}

// gate records the peers any party demoted and the demotion events, both
// of which a healthy loopback run leaves at zero: a non-zero count means a
// round ran into Δ or a link broke, and the timings mean something else.
func (m *mesh) gate(r *result) {
	faulty, demotions := 0, 0
	for _, tr := range m.trs {
		faulty += len(tr.Faulty())
		for _, c := range tr.Demotions() {
			demotions += c
		}
	}
	r.mustBeZero("tcpnet.faulty_peers", float64(faulty))
	r.mustBeZero("tcpnet.demotions", float64(demotions))
}
