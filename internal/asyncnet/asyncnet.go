// Package asyncnet simulates the asynchronous network model that the
// paper's §8 names as the natural next setting for its techniques: n
// parties with authenticated channels, no clocks, and an adversary that
// fully controls message *scheduling* — every message is delivered
// eventually, but arbitrarily late and in arbitrary order.
//
// The simulator is quiescence-driven and single-threaded at its core:
// parties run as goroutines issuing Send (non-blocking) and Recv
// (blocking). Whenever every running party is blocked in Recv on an empty
// inbox, the configured Scheduler — the adversary — picks ONE pending
// message to deliver, and execution resumes. This gives the scheduler the
// full power of the asynchronous adversary (any interleaving consistent
// with eventual delivery is reachable) while keeping runs deterministic
// and reproducible from a seed.
//
// The asynchronous protocols built on top (package rbc, package asyncaa)
// are the substrate the paper's related work ([1], [16], [26]) assumes.
package asyncnet

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
)

// PartyID identifies a party, 0..n-1.
type PartyID int

// Message is a delivered message with an authenticated sender.
type Message struct {
	From    PartyID
	Payload []byte
}

// pending is an undelivered message.
type pending struct {
	from, to  PartyID
	payload   []byte
	senderSeq uint64 // this sender's send counter: deterministic program order
}

// Scheduler chooses which pending message to deliver at each quiescent
// point: the asynchronous adversary. It returns an index into queue.
// Implementations must be deterministic given their own state.
type Scheduler interface {
	Pick(queue []QueuedMessage) int
}

// QueuedMessage is the scheduler's read-only view of a pending message.
type QueuedMessage struct {
	From, To PartyID
	Size     int
	Age      uint64 // deliveries since enqueue; grows as it languishes
}

// Behavior is the code one party runs.
type Behavior func(net *Net, id PartyID) error

// Party pairs a behavior with its corruption status. The run ends once
// every honest party has returned; corrupt parties still blocked in Recv
// then get ErrHalted.
type Party struct {
	Behavior Behavior
	Corrupt  bool
}

// Errors surfaced by the simulator.
var (
	// ErrDeadlock reports full quiescence with no pending messages: the
	// protocol is waiting for traffic that can never arrive.
	ErrDeadlock = errors.New("asyncnet: all parties blocked with no pending messages")
	// ErrBudget reports that the delivery budget was exhausted (a guard
	// against livelock in buggy protocols).
	ErrBudget = errors.New("asyncnet: delivery budget exhausted")
	// ErrHalted is returned from Recv once the run is over.
	ErrHalted = errors.New("asyncnet: run halted")
)

// Config parameterizes a run.
type Config struct {
	N int
	T int
	// Scheduler defaults to a seeded RandomScheduler.
	Scheduler Scheduler
	// Seed seeds the default scheduler.
	Seed int64
	// MaxDeliveries guards against livelock; 0 means a generous default.
	MaxDeliveries uint64
}

// DefaultMaxDeliveries bounds runs when Config.MaxDeliveries is zero.
const DefaultMaxDeliveries = 5_000_000

// Net is the shared simulated network.
type Net struct {
	cfg  Config
	mu   sync.Mutex
	wake []*sync.Cond // per party, all on mu: a delivery wakes its recipient only

	inbox     [][]Message // delivered, per party (FIFO)
	queue     []pending
	running   []bool
	corrupt   []bool
	blocked   []bool
	nRunning  int
	nHonest   int
	nBlocked  int
	senderSeq []uint64 // per-sender send counters
	outputs   []bool   // MarkDone called
	nPendingH int      // honest parties that have not reached an output
	delivered uint64
	failed    error
	errs      []error
}

// Deliveries reports how many messages the scheduler has delivered so far
// (the async analogue of a round count, usable after Run returns).
func (n *Net) Deliveries() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.delivered
}

// Run executes the parties until every honest one returns, then halts the
// rest; per-party errors are returned, with honest failures joined into the
// second result (ErrHalted exits are clean).
func Run(cfg Config, parties []Party) ([]error, error) {
	if cfg.N <= 0 || len(parties) != cfg.N {
		return nil, fmt.Errorf("asyncnet: %d parties for n=%d", len(parties), cfg.N)
	}
	if cfg.Scheduler == nil {
		cfg.Scheduler = NewRandomScheduler(cfg.Seed)
	}
	if cfg.MaxDeliveries == 0 {
		cfg.MaxDeliveries = DefaultMaxDeliveries
	}
	net := &Net{
		cfg:       cfg,
		inbox:     make([][]Message, cfg.N),
		running:   make([]bool, cfg.N),
		corrupt:   make([]bool, cfg.N),
		blocked:   make([]bool, cfg.N),
		senderSeq: make([]uint64, cfg.N),
		outputs:   make([]bool, cfg.N),
		errs:      make([]error, cfg.N),
	}
	net.wake = make([]*sync.Cond, cfg.N)
	for i, p := range parties {
		net.wake[i] = sync.NewCond(&net.mu)
		net.running[i] = true
		net.corrupt[i] = p.Corrupt
		net.nRunning++
		if !p.Corrupt {
			net.nHonest++
		}
	}
	if net.nHonest == 0 {
		return nil, errors.New("asyncnet: no honest parties")
	}
	net.nPendingH = net.nHonest
	var wg sync.WaitGroup
	wg.Add(cfg.N)
	for i := range parties {
		go func(id PartyID, b Behavior) {
			defer wg.Done()
			err := runBehavior(b, net, id)
			net.done(id, err)
		}(PartyID(i), parties[i].Behavior)
	}
	wg.Wait()
	net.mu.Lock()
	defer net.mu.Unlock()
	var joined []error
	if net.failed != nil && !errors.Is(net.failed, ErrHalted) {
		joined = append(joined, net.failed)
	}
	for i, err := range net.errs {
		if err != nil && !net.corrupt[i] && !errors.Is(err, ErrHalted) {
			joined = append(joined, fmt.Errorf("party %d: %w", i, err))
		}
	}
	return net.errs, errors.Join(joined...)
}

func runBehavior(b Behavior, net *Net, id PartyID) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("asyncnet: behavior panicked: %v", rec)
		}
	}()
	return b(net, id)
}

// N returns the party count.
func (n *Net) N() int { return n.cfg.N }

// T returns the corruption budget.
func (n *Net) T() int { return n.cfg.T }

// MarkDone signals that this party has produced its protocol output but —
// as asynchronous protocols require — will keep serving other parties'
// instances (echoing, relaying) until the whole run completes. Once every
// honest party has called MarkDone (or returned), the run halts and all
// pending Recv calls return ErrHalted. Calling it more than once, or from
// a corrupt party, is a no-op.
func (n *Net) MarkDone(id PartyID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.corrupt[id] || n.outputs[id] {
		return
	}
	n.outputs[id] = true
	n.nPendingH--
	if n.nPendingH == 0 && n.failed == nil {
		n.fail(ErrHalted)
	}
}

// Send enqueues a message; it never blocks. Sends to out-of-range parties
// are dropped.
func (n *Net) Send(from, to PartyID, payload []byte) {
	if to < 0 || int(to) >= n.cfg.N {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.failed != nil {
		return
	}
	n.senderSeq[from]++
	n.queue = append(n.queue, pending{from: from, to: to, payload: payload, senderSeq: n.senderSeq[from]})
}

// Broadcast sends payload to every party, including the sender.
func (n *Net) Broadcast(from PartyID, payload []byte) {
	for to := 0; to < n.cfg.N; to++ {
		n.Send(from, PartyID(to), payload)
	}
}

// Recv blocks until a message is delivered to id, performing adversarial
// scheduling whenever the whole system is quiescent.
func (n *Net) Recv(id PartyID) (Message, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for {
		if n.failed != nil {
			return Message{}, n.failed
		}
		if len(n.inbox[id]) > 0 {
			msg := n.inbox[id][0]
			n.inbox[id] = n.inbox[id][1:]
			return msg, nil
		}
		// blocked[id] is cleared by the delivery that fills the inbox (or
		// by done), never by waking up: a recipient whose goroutine has not
		// been scheduled yet must not count as blocked.
		if !n.blocked[id] {
			n.blocked[id] = true
			n.nBlocked++
		}
		if n.nBlocked == n.nRunning {
			// deliverOne marked its recipient (perhaps us) runnable or failed
			// the run; a delivery to a finished party woke nobody, and the
			// next iteration keeps driving the queue.
			n.deliverOne()
			continue
		}
		n.wake[id].Wait()
	}
}

// fail ends the run and releases every party blocked in Recv. Caller holds
// n.mu.
func (n *Net) fail(err error) {
	n.failed = err
	for _, c := range n.wake {
		c.Signal()
	}
}

// deliverOne lets the scheduler pick a pending message and delivers it.
// Caller holds n.mu and has established quiescence (all running parties
// blocked in Recv, hence on empty inboxes).
func (n *Net) deliverOne() {
	if len(n.queue) == 0 {
		n.fail(ErrDeadlock)
		return
	}
	if n.delivered >= n.cfg.MaxDeliveries {
		n.fail(fmt.Errorf("%w (%d deliveries)", ErrBudget, n.delivered))
		return
	}
	// Present the queue in a canonical order — (sender, sender's program
	// order, recipient) — so scheduler decisions, and hence entire runs,
	// are deterministic regardless of goroutine interleaving (the pending
	// multiset at each quiescent point is itself deterministic).
	perm := make([]int, len(n.queue))
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool {
		pa, pb := n.queue[perm[a]], n.queue[perm[b]]
		if pa.from != pb.from {
			return pa.from < pb.from
		}
		if pa.senderSeq != pb.senderSeq {
			return pa.senderSeq < pb.senderSeq
		}
		return pa.to < pb.to
	})
	view := make([]QueuedMessage, len(n.queue))
	for vi, qi := range perm {
		p := n.queue[qi]
		view[vi] = QueuedMessage{From: p.from, To: p.to, Size: len(p.payload), Age: n.senderSeq[p.from] - p.senderSeq}
	}
	pick := n.cfg.Scheduler.Pick(view)
	if pick < 0 || pick >= len(view) {
		pick = 0 // a misbehaving scheduler degrades to first-in-order
	}
	idx := perm[pick]
	p := n.queue[idx]
	n.queue = append(n.queue[:idx], n.queue[idx+1:]...)
	n.delivered++
	if n.running[p.to] {
		// The recipient is runnable from this instant, not from whenever its
		// goroutine is next scheduled: until it blocks again nobody else may
		// deliver, so exactly one party runs between two Picks and the
		// pending multiset at each Pick is the same on every run.
		n.inbox[p.to] = append(n.inbox[p.to], Message{From: p.from, Payload: p.payload})
		n.blocked[p.to] = false
		n.nBlocked--
		n.wake[p.to].Signal()
	}
}

// done retires a party.
func (n *Net) done(id PartyID, err error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.errs[id] = err
	if !n.running[id] {
		return
	}
	n.running[id] = false
	n.nRunning--
	if !n.corrupt[id] {
		n.nHonest--
		if !n.outputs[id] {
			n.outputs[id] = true
			n.nPendingH--
		}
	}
	if n.blocked[id] {
		n.blocked[id] = false
		n.nBlocked--
	}
	n.inbox[id] = nil
	if n.nHonest == 0 || n.nPendingH == 0 {
		// Protocol over: release any parties still serving in Recv.
		if n.failed == nil {
			n.fail(ErrHalted)
		}
		return
	}
	// The last runnable party just left: drive the queue until a delivery
	// reaches a party that is still running (or the run fails).
	for n.failed == nil && n.nRunning > 0 && n.nBlocked == n.nRunning {
		n.deliverOne()
	}
}

// RandomScheduler delivers a uniformly random pending message — the
// "benign chaos" baseline adversary.
type RandomScheduler struct {
	rng *rand.Rand
}

// NewRandomScheduler returns a seeded random scheduler.
func NewRandomScheduler(seed int64) *RandomScheduler {
	return &RandomScheduler{rng: rand.New(rand.NewSource(seed))}
}

// Pick implements Scheduler.
func (s *RandomScheduler) Pick(queue []QueuedMessage) int {
	return s.rng.Intn(len(queue))
}

// DelayScheduler starves the messages of chosen victim senders for as long
// as fairness allows: victims' messages are delivered only when nothing
// else is pending. This mimics the classic async attack of maximally
// delaying t specific (honest!) parties.
type DelayScheduler struct {
	victims map[PartyID]bool
	rng     *rand.Rand
}

// NewDelayScheduler builds a scheduler that starves the given senders.
func NewDelayScheduler(seed int64, victims ...PartyID) *DelayScheduler {
	m := make(map[PartyID]bool, len(victims))
	for _, v := range victims {
		m[v] = true
	}
	return &DelayScheduler{victims: m, rng: rand.New(rand.NewSource(seed))}
}

// Pick implements Scheduler.
func (s *DelayScheduler) Pick(queue []QueuedMessage) int {
	nonVictim := make([]int, 0, len(queue))
	for i, q := range queue {
		if !s.victims[q.From] {
			nonVictim = append(nonVictim, i)
		}
	}
	if len(nonVictim) == 0 {
		return s.rng.Intn(len(queue))
	}
	return nonVictim[s.rng.Intn(len(nonVictim))]
}

// LIFOScheduler always delivers the newest message first — an adversary
// that maximizes reordering against FIFO assumptions. Note it can starve
// old messages indefinitely in non-quiescing protocols, so it is a
// strictly-stronger-than-eventual-delivery adversary; the protocols here
// quiesce every round, which restores eventual delivery.
type LIFOScheduler struct{}

// Pick implements Scheduler.
func (LIFOScheduler) Pick(queue []QueuedMessage) int { return len(queue) - 1 }
