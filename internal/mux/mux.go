// Package mux implements parallel composition of synchronous protocols: k
// protocol instances run concurrently over ONE underlying transport, each
// seeing its own virtual transport.Net, with one physical round carrying
// the current virtual round of every live instance.
//
// The synchronous model composes in parallel exactly this way on paper —
// "run Π₁,…,Π_k in parallel" — and the round complexity of the composition
// is max(ROUNDS(Π_i)) instead of ΣROUNDS(Π_i). The broadcast-based CA
// baseline uses it to run its n broadcasts in O(n) instead of O(n²) rounds
// (experiment E11 measures exactly that ablation).
//
// The package is a policy over the sessmux core, which owns merge, demux
// and shed: instance i is session i, opened at the base's (n, t) when the
// mux is created, and a failed instance takes its siblings down with it.
//
// Lock-step soundness: every honest party must create the mux at the same
// physical round with the same instance count, and instance i must run the
// same protocol everywhere. The paper's protocols guarantee all honest
// parties finish instance i in the same virtual round, so the set of live
// instances — and hence the physical round schedule — stays identical
// across honest parties.
package mux

import (
	"errors"
	"fmt"
	"sync"

	"convexagreement/internal/sessmux"
	"convexagreement/internal/transport"
)

// ErrAborted reports that a sibling instance failed, tearing down the
// whole composition on this party.
var ErrAborted = errors.New("mux: composition aborted by a failed instance")

// Mux multiplexes instances over a base transport. Create with New, obtain
// virtual nets with Net, or drive everything with Run.
type Mux struct {
	core      *sessmux.Mux
	instances []*sessmux.Session
}

// New creates a composition of the given number of instances.
func New(base transport.Net, instances int) (*Mux, error) {
	if instances <= 0 {
		return nil, fmt.Errorf("mux: need at least one instance, got %d", instances)
	}
	m := &Mux{core: sessmux.New(base), instances: make([]*sessmux.Session, instances)}
	// Instances are bounded per inbox only (64·n by default); equal-shape
	// instances of one protocol run have no heavier sibling to shed from.
	m.core.SetTickBound(0)
	for i := range m.instances {
		s, err := m.core.Open(uint64(i), base.N(), base.T())
		if err != nil {
			return nil, fmt.Errorf("mux: instance %d: %w", i, err)
		}
		m.instances[i] = s
	}
	return m, nil
}

// SetInboxBound caps each instance's per-round inbox at bound messages
// (0 or negative removes the cap). The default is 64·n. Call before any
// instance exchanges; the bound is backpressure against a flooding peer
// starving its neighbors' instances, not a correctness knob — honest
// traffic is one message per sender per instance per round, far under any
// sane bound.
func (m *Mux) SetInboxBound(bound int) { m.core.SetSessionBound(max(bound, 0)) }

// Shed reports how many messages have been shed by the inbox bound.
func (m *Mux) Shed() uint64 { return m.core.Stats().SessionShed }

// Net returns instance i's virtual transport. Each virtual net must be
// driven by exactly one goroutine, and its instance must call Done (or be
// run via Run) when it finishes so the remaining instances can proceed.
func (m *Mux) Net(i int) transport.Net { return m.instances[i] }

// Done retires instance i; a second call is a no-op. Run calls it
// automatically.
func (m *Mux) Done(i int) { m.instances[i].Close() }

// Run executes all instance functions concurrently over virtual nets and
// waits for every one to finish; it returns the combined error. An
// instance that fails aborts its siblings: their next Exchange returns an
// error wrapping ErrAborted.
func (m *Mux) Run(fns []func(net transport.Net) error) error {
	if len(fns) != len(m.instances) {
		return fmt.Errorf("mux: %d functions for %d instances", len(fns), len(m.instances))
	}
	errs := make([]error, len(fns))
	var wg sync.WaitGroup
	for i, fn := range fns {
		wg.Add(1)
		go func(i int, fn func(net transport.Net) error) {
			defer wg.Done()
			errs[i] = fn(m.Net(i))
			if errs[i] != nil {
				m.core.Poison(fmt.Errorf("%w: instance %d: %v", ErrAborted, i, errs[i]))
			}
			m.Done(i)
		}(i, fn)
	}
	wg.Wait()
	return errors.Join(errs...)
}
