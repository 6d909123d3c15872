// Package channet implements the synchronous transport abstraction
// (transport.Net) over in-process Go channels: a Hub connects n parties
// running as goroutines in one process, with true lock-step rounds and no
// simulator machinery (no adversary hooks, no accounting).
//
// It fills the gap between the two other transports: the simulator
// (package sim) is for experiments — adversaries, cost metrics — and tcpnet
// is for multi-process deployment; channet is for *embedding*: an
// application that hosts several logical parties in one process (tests,
// demos, single-binary clusters) runs them over a Hub at memory speed.
package channet

import (
	"errors"
	"fmt"
	"sync"

	"convexagreement/internal/transport"
)

// ErrClosed is returned from Exchange after the hub is closed.
var ErrClosed = errors.New("channet: hub closed")

// Hub is the shared medium connecting n parties.
type Hub struct {
	n, t int

	mu        sync.Mutex
	cond      *sync.Cond
	round     uint64
	active    []bool
	submitted []bool
	pending   [][]transport.Packet
	inboxes   [][]transport.Message
	arenas    [2][]byte // the payload copies of the even and the odd rounds
	nActive   int
	nPending  int
	closed    bool
}

// NewHub creates a hub for n parties with corruption budget t (the value
// protocols read via Net.T; channet itself runs no adversaries).
func NewHub(n, t int) (*Hub, error) {
	if n <= 0 || t < 0 || (n > 1 && 3*t >= n) {
		return nil, fmt.Errorf("channet: invalid n=%d t=%d", n, t)
	}
	h := &Hub{
		n:         n,
		t:         t,
		active:    make([]bool, n),
		submitted: make([]bool, n),
		pending:   make([][]transport.Packet, n),
		inboxes:   make([][]transport.Message, n),
		nActive:   n,
	}
	for i := range h.active {
		h.active[i] = true
	}
	h.cond = sync.NewCond(&h.mu)
	return h, nil
}

// Net returns party id's transport handle. Each handle must be driven by
// one goroutine; a party that finishes must call its handle's Leave (or the
// goroutine convenience Run) so remaining parties' rounds keep closing.
func (h *Hub) Net(id int) (*Conn, error) {
	if id < 0 || id >= h.n {
		return nil, fmt.Errorf("channet: party %d out of range [0,%d)", id, h.n)
	}
	return &Conn{hub: h, id: transport.PartyID(id)}, nil
}

// Run executes fns[i] as party i concurrently and waits for all to finish,
// handling Leave bookkeeping automatically.
func (h *Hub) Run(fns []func(net transport.Net) error) error {
	if len(fns) != h.n {
		return fmt.Errorf("channet: %d functions for n=%d", len(fns), h.n)
	}
	errs := make([]error, h.n)
	var wg sync.WaitGroup
	for i, fn := range fns {
		conn, err := h.Net(i)
		if err != nil {
			return err
		}
		wg.Add(1)
		go func(i int, fn func(net transport.Net) error, conn *Conn) {
			defer wg.Done()
			defer conn.Leave()
			errs[i] = fn(conn)
		}(i, fn, conn)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Close releases every blocked party with ErrClosed.
func (h *Hub) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.closed = true
	h.cond.Broadcast()
}

// Disconnect forcibly retires party id from outside — the hub-side analogue
// of a crashed process. The party's pending submission (if any) is
// discarded, remaining parties' rounds keep closing, and the party's own
// next Exchange returns ErrClosed. Safe to call at any time, including for
// already-departed parties.
func (h *Hub) Disconnect(id int) {
	if id < 0 || id >= h.n {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.active[id] {
		return
	}
	h.active[id] = false
	h.nActive--
	if h.submitted[id] {
		h.submitted[id] = false
		h.pending[id] = nil
		h.nPending--
	}
	h.maybeFlush()
	h.cond.Broadcast()
}

// Conn is one party's handle; it implements transport.Net.
type Conn struct {
	hub  *Hub
	id   transport.PartyID
	left bool
}

var _ transport.Net = (*Conn)(nil)

// ID implements transport.Net.
func (c *Conn) ID() transport.PartyID { return c.id }

// N implements transport.Net.
func (c *Conn) N() int { return c.hub.n }

// T implements transport.Net.
func (c *Conn) T() int { return c.hub.t }

// Exchange implements one lock-step round.
func (c *Conn) Exchange(out []transport.Packet) ([]transport.Message, error) {
	h := c.hub
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed || c.left || !h.active[c.id] {
		return nil, ErrClosed
	}
	if h.submitted[c.id] {
		return nil, fmt.Errorf("channet: party %d submitted twice in round %d", c.id, h.round)
	}
	kept := h.pending[c.id][:0] // emptied by the last flush, kept for reuse
	for _, p := range out {
		if p.To >= 0 && int(p.To) < h.n {
			kept = append(kept, p)
		}
	}
	h.pending[c.id] = kept
	h.submitted[c.id] = true
	h.nPending++
	myRound := h.round
	h.maybeFlush()
	for h.round == myRound && !h.closed && h.nActive > 0 {
		h.cond.Wait()
	}
	if h.closed {
		return nil, ErrClosed
	}
	if h.round == myRound {
		return nil, ErrClosed // every other party left mid-round
	}
	return h.inboxes[c.id], nil
}

// Leave retires the party so the remaining parties' rounds keep closing.
// Safe to call multiple times.
func (c *Conn) Leave() {
	h := c.hub
	h.mu.Lock()
	defer h.mu.Unlock()
	if c.left || !h.active[c.id] {
		return
	}
	c.left = true
	h.active[c.id] = false
	h.nActive--
	if h.submitted[c.id] {
		h.submitted[c.id] = false
		h.pending[c.id] = nil
		h.nPending--
	}
	h.maybeFlush()
	h.cond.Broadcast()
}

// maybeFlush closes the round when every active party has submitted; a
// closed hub closes none, as its parties may have left Exchange with their
// packets still pending. Caller holds h.mu.
//
// The round's containers are the hub's, refilled every round: a sender's
// packet list is read here and emptied, and an active party's inbox slice
// is refilled because the party submitted to this round, so by
// transport.Net's lifetime rule it no longer reads the last one. A departed
// party's inbox is built afresh. Senders are visited in ascending order, so
// every inbox comes out sorted by sender.
//
// Every payload is copied here, so a sender may rewrite its buffers once
// its Exchange returns: round r's copies go into the arena of r's parity,
// refilled when round r+2 closes, when no party reads round r's inbox any
// more (a payload of it relayed in round r+1 is read out of the other). An
// arena that grows leaves its earlier copies where they are.
func (h *Hub) maybeFlush() {
	if h.closed || h.nActive == 0 || h.nPending < h.nActive {
		return
	}
	copies := h.arenas[h.round%2][:0]
	for to := range h.inboxes {
		if h.active[to] {
			h.inboxes[to] = h.inboxes[to][:0]
		} else {
			h.inboxes[to] = nil
		}
	}
	for from := 0; from < h.n; from++ {
		if !h.submitted[from] {
			continue
		}
		out := h.pending[from]
		var payload []byte
		for i, p := range out {
			payload = transport.Copied(&copies, out, i, payload)
			h.inboxes[p.To] = append(h.inboxes[p.To], transport.Message{From: transport.PartyID(from), Payload: payload})
		}
		clear(out) // don't pin the payloads past the round
		h.pending[from] = h.pending[from][:0]
		h.submitted[from] = false
	}
	h.arenas[h.round%2] = copies
	h.nPending = 0
	h.round++
	h.cond.Broadcast()
}
