// Package channet is the in-process transport (transport.Net): a Hub
// connects n parties running as goroutines in one process, with true
// lock-step rounds, at memory speed.
//
// It is an adapter over the simulator's round engine (package sim), not a
// second one: a hub is a sim run whose parties are all honest, started with
// no round cutoff, and each Conn is a party's *sim.Env. So a hub's rounds
// close, copy their payloads and account their bits per tag exactly as a
// simulated run's do; its rounds close while any party is active, the
// rushing adversary's peek never engages, and no round closes after Close.
// tcpnet is for multi-process deployment; channet is for *embedding*: an
// application that hosts several logical parties in one process (tests,
// demos, single-binary clusters) runs them over a Hub.
package channet

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"convexagreement/internal/sim"
	"convexagreement/internal/transport"
)

// ErrClosed is returned from Exchange after the hub is closed, after the
// party left or was disconnected, and once every party has left: the
// engine's sim.ErrSimOver.
var ErrClosed = sim.ErrSimOver

// Hub is the shared medium connecting n parties.
type Hub struct {
	n   int
	run *sim.Runner
}

// Conn is one party's handle; it implements transport.Net. Leave retires
// the party.
type Conn = sim.Env

// NewHub creates a hub for n parties with corruption budget t (the value
// protocols read via Net.T; channet itself runs no adversaries).
func NewHub(n, t int) (*Hub, error) {
	if n <= 0 || t < 0 || (n > 1 && 3*t >= n) {
		return nil, fmt.Errorf("channet: invalid n=%d t=%d", n, t)
	}
	run, err := sim.Start(sim.Config{N: n, T: t, MaxRounds: math.MaxInt}, nil)
	if err != nil {
		return nil, err
	}
	return &Hub{n: n, run: run}, nil
}

// Net returns party id's transport handle. Each handle must be driven by
// one goroutine; a party that finishes must call its handle's Leave (or the
// goroutine convenience Run) so remaining parties' rounds keep closing.
func (h *Hub) Net(id int) (*Conn, error) {
	if id < 0 || id >= h.n {
		return nil, fmt.Errorf("channet: party %d out of range [0,%d)", id, h.n)
	}
	return h.run.Env(id), nil
}

// Run executes fns[i] as party i concurrently and waits for all to finish,
// handling Leave bookkeeping automatically.
func (h *Hub) Run(fns []func(net transport.Net) error) error {
	if len(fns) != h.n {
		return fmt.Errorf("channet: %d functions for n=%d", len(fns), h.n)
	}
	errs := make([]error, h.n)
	var wg sync.WaitGroup
	wg.Add(h.n)
	for i, fn := range fns {
		go func(conn *Conn) {
			defer wg.Done()
			defer conn.Leave()
			errs[i] = fn(conn)
		}(h.run.Env(i))
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Close releases every blocked party with ErrClosed; no round closes after
// it.
func (h *Hub) Close() { h.run.Close(ErrClosed) }

// Disconnect forcibly retires party id from outside — the hub-side analogue
// of a crashed process. The party's pending submission (if any) is
// discarded, remaining parties' rounds keep closing, and the party's own
// next Exchange returns ErrClosed. Safe to call at any time, including for
// already-departed parties.
func (h *Hub) Disconnect(id int) {
	if id >= 0 && id < h.n {
		h.run.Retire(id, nil)
	}
}
