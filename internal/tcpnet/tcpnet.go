// Package tcpnet implements the synchronous network abstraction
// (transport.Net) over real TCP connections, so every protocol in this
// library runs unchanged across processes and machines.
//
// The paper's synchronous model (§2) assumes authenticated channels and a
// publicly known message-delay bound Δ. This transport realizes it the way
// deployed synchronous protocols do: the n parties form a full mesh of TCP
// connections (the connection itself standing in for the model's
// authenticated channel), every party sends every peer exactly one frame
// per round (possibly empty), and a round closes when frames for it have
// arrived from all peers or after the Δ timeout — a peer that misses Δ is
// treated as silent for that round, exactly the adversary's omission power.
//
// Links degrade gracefully rather than fail the run. Each pairwise link is
// a small state machine (up → down → up, or → silent):
//
//   - An I/O failure (reset, idle timeout derived from Δ, write error) marks
//     the link down. Every write starts with between 7Δ/8 and Δ left on its
//     deadline, so a peer that stops reading takes its link down within Δ
//     of the write it blocks. Down peers stop being waited for, so rounds keep
//     closing at full speed. The dialing side (the party with the higher
//     id) re-dials with bounded exponential backoff plus jitter and
//     re-handshakes; the accepting side keeps its listener open for the
//     whole run and re-accepts. A restored link resumes at the current
//     round — the outage reads as omission, never corruption.
//   - A protocol violation (garbled or oversized frame, wire.ErrFrame)
//     marks the peer silent for the rest of the run: a peer that speaks
//     nonsense is misbehaving, not unlucky, and reconnecting to it would
//     hand it another chance to wedge the round loop. Silent peers are
//     reported by Faulty.
//
// There is no cost accounting here (BITS/ROUNDS measurements live in the
// simulator); this transport exists to demonstrate and test deployment.
package tcpnet

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"convexagreement/internal/transport"
	"convexagreement/internal/wire"
)

// Config describes one party's view of the cluster.
type Config struct {
	// ID is this party's index into Addrs.
	ID int
	// Addrs lists all n parties' listen addresses, in party order.
	Addrs []string
	// T is the corruption budget handed to protocols (t < n/3).
	T int
	// Delta is the synchrony bound: how long Exchange waits for the
	// round's frames before declaring missing peers silent. Default 2s.
	Delta time.Duration
	// DialTimeout bounds mesh establishment. Default 10s.
	DialTimeout time.Duration
	// ReconnectAttempts bounds how many times the dialing side re-dials a
	// broken link before demoting the peer to silent for the run.
	// 0 means the default (5); negative is ErrConfig.
	ReconnectAttempts int
	// ReconnectBase is the first reconnect backoff; it doubles per
	// attempt with up to +100% jitter. Default 50ms.
	ReconnectBase time.Duration
	// Listener optionally supplies a pre-bound listener for Addrs[ID]
	// (tests bind port 0 first and pass the resolved listener in). The
	// listener stays open for the lifetime of the Conn — re-handshakes
	// after a link failure arrive on it — and is closed by Conn.Close.
	Listener net.Listener
	// ResumeRound is the absolute round this party starts at — zero for a
	// fresh party, the checkpointed next round for one rejoining the mesh
	// after a crash. The handshake announces it to every peer, which
	// replays its buffered outbox tail for the gap (or demotes the party
	// to silent when the gap exceeds its RejoinWindow).
	ResumeRound uint64
	// RejoinWindow is how many recent rounds of outgoing frames each
	// party buffers per peer to serve rejoin replays. 0 means the default
	// (128); negative is ErrConfig.
	RejoinWindow int
	// Budget bounds what each peer may send this party: per-frame bytes
	// plus a round-clock token bucket over frames and bytes, enforced
	// before any pooled-buffer allocation (see wire.Budget). nil applies
	// wire.DefaultBudget(maxFrame, RejoinWindow) — the structural frame
	// bound with burst capacity covering a full rejoin replay. A peer that
	// exceeds its budget is demoted to Faulty() with a structured reason
	// (Stats.Demotions).
	Budget *wire.Budget
	// HelloBurst caps handshake attempts per remote host for the lifetime
	// of this Conn, so an unauthenticated dialer cannot churn the accept
	// path for free. 0 means the default (64 + 8n, generous because every
	// local test shares one host); negative is ErrConfig.
	HelloBurst int
	// RoundHorizon bounds how many rounds ahead of this party's current
	// round an inbound frame may be buffered; frames beyond it are dropped
	// (not a demotion — an honest fast peer can legitimately run ahead of
	// a stalled party, but unbounded buffering would let a hostile one
	// park frames at absurd round numbers forever). 0 means the default
	// (RejoinWindow + 64); negative is ErrConfig.
	RoundHorizon int
}

// Errors returned by the transport.
var (
	ErrClosed = errors.New("tcpnet: connection closed")
	ErrConfig = errors.New("tcpnet: invalid config")
)

// maxFrame bounds a single round frame from one peer (64 MiB).
const maxFrame = 64 << 20

// readBufferSize is each link's read buffer (16 KiB): a party holds n−1 of
// them for the life of the mesh, so it is sized to a round's frame at the
// protocol's small-value shapes, not to the largest frame. A frame body
// longer than what is buffered is read straight into its pooled frame.
const readBufferSize = 16 << 10

// helloMaxBytes bounds the pre-handshake hello read: two uvarints (id,
// round) encode in at most 20 bytes, and an unauthenticated dialer gets
// not one byte more — the structural maxFrame limit is for peers that
// have already identified themselves.
const helloMaxBytes = 24

// maxHelloRound rejects absurd round announcements in a hello the same way
// absurd ids are rejected: an honest resume round is bounded by real
// execution history, so the top bits being set means a hostile dialer is
// probing the rejoin-replay machinery.
const maxHelloRound = 1 << 62

// linkState tracks one pairwise connection's health.
type linkState uint8

const (
	linkDown   linkState = iota // not (or no longer) connected; reconnect may restore it
	linkUp                      // connected, counted toward round quorum
	linkSilent                  // demoted for the run (violation or exhausted retries)
)

// link is one peer's connection slot. All fields are guarded by Conn.mu.
// gen increments every time conn is replaced or torn down, so goroutines
// holding an old conn recognize their view is stale and stand down.
type link struct {
	conn         net.Conn
	state        linkState
	gen          uint64
	reconnecting bool
}

// inboxEntry is one peer's delivery for one round: the pooled frame and the
// payload headers that alias it, both exactly as the read produced them
// (awaitRound builds the Messages); a nil frame means the peer has not
// delivered. The frame stays live while the entry sits in the inbox and
// through the Exchange that delivers it; the next Exchange releases it —
// transport.Net's payload-lifetime rule. An undelivered slot of a reused
// entry slice still holds the emptied header slice of the delivery it
// carried last, which the read loop that fills the slot takes as its next
// scratch: header slices circulate between the read loops and the slots and
// are not reallocated.
type inboxEntry struct {
	payloads [][]byte
	frame    *wire.Frame
}

// empty marks the slot undelivered, keeping its header slice (emptied, so it
// pins no frame) for the next read that fills it.
func (e *inboxEntry) empty() {
	clear(e.payloads)
	e.payloads, e.frame = e.payloads[:0], nil
}

// roundSlot is one round of the rejoin tail: the round number and what this
// party sent every peer in it — one shared frame for a round of nothing but
// transport.All entries (a broadcast or an empty round), else one frame per
// peer, indexed by party id. The slot owns its frames until the round
// slides out of the window.
type roundSlot struct {
	round  uint64
	shared *wire.Frame
	peers  []*wire.Frame
}

// frame returns the frame peer was sent in round r, or nil when the slot
// does not hold round r.
func (s *roundSlot) frame(r uint64, peer int) *wire.Frame {
	switch {
	case s.round != r:
		return nil
	case s.shared != nil:
		return s.shared
	case peer < len(s.peers):
		return s.peers[peer]
	}
	return nil
}

// evict releases the frames of the round the slot holds — a shared frame
// once, however many peers it went to — and leaves the slot empty.
func (s *roundSlot) evict() {
	if s.shared != nil {
		s.shared.Release()
		s.shared = nil
	}
	for j, f := range s.peers {
		if f != nil {
			f.Release()
			s.peers[j] = nil
		}
	}
}

// sendTarget is one peer's link as a round send snapshots it.
type sendTarget struct {
	conn net.Conn
	gen  uint64
}

// writeDeadline is the write deadline last armed on a peer's socket, so a
// write re-arms it only once it has drifted.
type writeDeadline struct {
	conn net.Conn
	at   time.Time
}

// Demotion records one peer's demotion to silent: who, why (the
// structured ingress verdict), and at which local round it happened.
type Demotion struct {
	Peer   int
	Reason wire.Reason
	Round  uint64
}

// PeerStats is one peer's ingress accounting: the admission counters
// (frames/bytes admitted, frames rejected) plus its demotion reason —
// wire.ReasonNone while the peer is live.
type PeerStats struct {
	Peer int
	wire.AdmissionCounters
	Demoted wire.Reason
}

// Stats are cumulative counters. Writes counts write calls issued (each one
// contiguous pooled buffer); FramesSent counts encoded round frames
// shipped, replayed frames included — the ratio is the batching win: a
// rejoin replay of G rounds is one write, not G. The ingress side reports
// hellos refused by the per-host handshake cap, frames dropped beyond the
// round horizon, every demotion with its structured reason, and per-peer
// admission counters; Demotions and Peers are sorted by party id.
type Stats struct {
	FramesSent     uint64
	Writes         uint64
	BytesSent      uint64
	HellosRejected uint64
	FramesDropped  uint64
	Demotions      []Demotion
	Peers          []PeerStats
}

// Conn is one party's handle to the TCP mesh. It implements transport.Net.
type Conn struct {
	cfg Config
	n   int

	mu      sync.Mutex
	cond    *sync.Cond
	links   []link // indexed by party id; own id unused
	inbound map[net.Conn]struct{}
	// byRound holds each open round's deliveries indexed by party id, so a
	// round is read out in sender order with no sort.
	byRound map[uint64][]inboxEntry
	round   uint64
	// have counts the up peers' frames delivered for round: the read loops
	// wake awaitRound only when it reaches expectedPeers. It may run high
	// (a counted peer's link went down, or its frames were purged), which
	// costs awaitRound a recount, never low, which would cost a round Δ.
	have   int
	closed bool
	// tails is the rejoin tail, a ring of RejoinWindow round slots (round
	// r in slot r mod RejoinWindow) holding the frames sent in the last
	// RejoinWindow rounds, so a rejoining peer's gap can be replayed. The
	// slots own their frames: storing round r evicts round r −
	// RejoinWindow. Only the Exchange goroutine stores and evicts, under
	// mu. Close drops the ring without releasing — an in-flight write may
	// still be reading a tail frame's bytes, and on teardown the GC is the
	// safe reclaimer.
	tails []roundSlot
	// spent holds the pooled frames whose payloads the previous Exchange
	// handed to the caller; the next Exchange releases them, which is
	// exactly the payload lifetime transport.Net promises.
	spent []*wire.Frame
	// frontier is the highest round any peer has announced in a handshake —
	// how far ahead the mesh was when this (possibly resumed) party joined.
	frontier uint64
	// demotions records every peer demoted to silent with its structured
	// reason, in demotion order (Stats returns them sorted by peer).
	demotions []Demotion
	// helloCount counts handshake attempts per remote host so HelloBurst
	// can refuse churn from an unauthenticated dialer.
	helloCount map[string]int

	// adm is the per-peer ingress gate (indexed by party id; own id nil).
	// It lives on the Conn, not the read loop, so budgets persist across
	// reconnects — otherwise handshake churn would reset them, which is
	// exactly the attack.
	adm []*wire.Admission
	// roundNow mirrors c.round for the read loops' admission Advance
	// calls, which must not take c.mu on the per-frame fast path.
	roundNow atomic.Uint64

	// arena pools frame buffers for the whole Conn: encode side (outgoing
	// round frames, replay batches) and decode side (inbound frames).
	arena wire.Arena
	// wmu serializes writers on one socket (the live round send vs a rejoin
	// replay batch) so frames can never interleave mid-stream; indexed by
	// party id. Leaf mutex: nothing but the deadline-bounded write happens
	// under it, and Close unblocks the write by closing the conn. wdl[peer],
	// the deadline armed on that socket, is guarded by wmu[peer].
	wmu []sync.Mutex
	wdl []writeDeadline

	// Round scratch: every container a round fills is held here and reset,
	// not reallocated, so the steady-state round allocates nothing. All of it
	// belongs to the Exchange goroutine (transport.Net has one driver) and is
	// covered by the Net lifetime rule — what a round hands out is valid
	// until the next Exchange; only free is shared with the read loops, under
	// mu. Each grows to the largest round seen and stays there.
	pieces  [][]byte              // Exchange: one piece per packet, len(out) long, cleared after the round
	staged  []transport.VecPacket // Exchange: its packets as ExchangeVec entries
	vecs    [][][][]byte          // ExchangeVec: scatter-gather payloads per destination
	self    []transport.Message   // this round's self-deliveries
	selfBuf []byte                // this round's self-deliveries, flattened
	inbox   []transport.Message   // the inbox the round hands out
	// frames stages a per-peer round's frames, indexed by party id, for
	// sendRound to swap into the round's tail slot; all nil between rounds.
	frames []*wire.Frame
	sendTo []sendTarget // sendRound's link snapshot, cleared after the writes
	// free holds retired per-round entry slices for the read loops to reopen
	// rounds with; at most RoundHorizon+1 rounds are ever open at once, so
	// that is all it keeps.
	free [][]inboxEntry
	// timer wakes a waiting awaitRound at the round's Δ deadline: one timer
	// Reset per round (a stale fire only broadcasts the cond).
	timer *time.Timer

	framesSent     atomic.Uint64
	writes         atomic.Uint64
	bytesSent      atomic.Uint64
	hellosRejected atomic.Uint64
	framesDropped  atomic.Uint64

	listener net.Listener
	done     chan struct{}
	wg       sync.WaitGroup
}

var _ transport.Net = (*Conn)(nil)

// Dial establishes the full mesh and returns when every pairwise connection
// is up. Every party must call Dial with a consistent Config; party i
// accepts connections from parties j > i and dials parties j < i.
func Dial(cfg Config) (*Conn, error) {
	n := len(cfg.Addrs)
	if n == 0 || cfg.ID < 0 || cfg.ID >= n {
		return nil, fmt.Errorf("%w: id %d of %d addrs", ErrConfig, cfg.ID, n)
	}
	if cfg.T < 0 || (n > 1 && cfg.T >= n) {
		return nil, fmt.Errorf("%w: t=%d for n=%d", ErrConfig, cfg.T, n)
	}
	if cfg.ReconnectAttempts < 0 || cfg.RejoinWindow < 0 || cfg.HelloBurst < 0 || cfg.RoundHorizon < 0 {
		return nil, fmt.Errorf("%w: negative ReconnectAttempts %d, RejoinWindow %d, HelloBurst %d or RoundHorizon %d",
			ErrConfig, cfg.ReconnectAttempts, cfg.RejoinWindow, cfg.HelloBurst, cfg.RoundHorizon)
	}
	if cfg.Delta == 0 {
		cfg.Delta = 2 * time.Second
	}
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	if cfg.ReconnectAttempts == 0 {
		cfg.ReconnectAttempts = 5
	}
	if cfg.ReconnectBase <= 0 {
		cfg.ReconnectBase = 50 * time.Millisecond
	}
	if cfg.RejoinWindow == 0 {
		cfg.RejoinWindow = 128
	}
	if cfg.HelloBurst == 0 {
		cfg.HelloBurst = 64 + 8*n
	}
	if cfg.RoundHorizon == 0 {
		cfg.RoundHorizon = cfg.RejoinWindow + 64
	}
	c := &Conn{
		cfg:        cfg,
		n:          n,
		links:      make([]link, n),
		inbound:    make(map[net.Conn]struct{}),
		byRound:    make(map[uint64][]inboxEntry),
		round:      cfg.ResumeRound,
		frontier:   cfg.ResumeRound,
		tails:      make([]roundSlot, cfg.RejoinWindow),
		wmu:        make([]sync.Mutex, n),
		wdl:        make([]writeDeadline, n),
		vecs:       make([][][][]byte, n),
		sendTo:     make([]sendTarget, n),
		helloCount: make(map[string]int),
		adm:        make([]*wire.Admission, n),
		done:       make(chan struct{}),
	}
	budget := wire.DefaultBudget(maxFrame, cfg.RejoinWindow)
	if cfg.Budget != nil {
		budget = *cfg.Budget
	}
	for j := range c.adm {
		if j != cfg.ID {
			c.adm[j] = wire.NewAdmission(budget)
		}
	}
	c.roundNow.Store(cfg.ResumeRound)
	c.cond = sync.NewCond(&c.mu)

	ln := cfg.Listener
	if ln == nil && cfg.ID < n-1 { // parties with higher-numbered peers must listen
		var err error
		ln, err = net.Listen("tcp", cfg.Addrs[cfg.ID])
		if err != nil {
			return nil, fmt.Errorf("tcpnet: listen %s: %w", cfg.Addrs[cfg.ID], err)
		}
	}
	c.listener = ln
	if ln != nil {
		c.wg.Add(1)
		go c.acceptLoop(ln)
	}
	deadline := time.Now().Add(cfg.DialTimeout)

	// Dial lower ids (with retries while their listeners come up).
	for j := 0; j < cfg.ID; j++ {
		var conn net.Conn
		var err error
		for time.Now().Before(deadline) {
			conn, err = net.DialTimeout("tcp", cfg.Addrs[j], time.Until(deadline))
			if err == nil {
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("tcpnet: dial party %d at %s: %w", j, cfg.Addrs[j], err)
		}
		peerRound, err := c.handshakeAsDialer(conn, deadline)
		if err != nil {
			conn.Close()
			c.Close()
			return nil, fmt.Errorf("tcpnet: handshake with party %d: %w", j, err)
		}
		c.installLink(j, conn, peerRound)
	}

	// Wait for higher ids to dial in.
	c.timer = time.AfterFunc(time.Until(deadline), c.wake)
	c.mu.Lock()
	for c.missingPeer() >= 0 && time.Now().Before(deadline) && !c.closed {
		c.cond.Wait()
	}
	missing := c.missingPeer()
	c.mu.Unlock()
	c.timer.Stop()
	if missing >= 0 {
		c.Close()
		return nil, fmt.Errorf("tcpnet: no connection to party %d", missing)
	}
	return c, nil
}

// wake is the deadline timer's callback: it re-runs whichever wait loop the
// deadline belongs to (Dial's mesh wait, then each round's awaitRound).
func (c *Conn) wake() {
	c.mu.Lock()
	c.cond.Broadcast()
	c.mu.Unlock()
}

// missingPeer returns the lowest peer id that has never connected (gen 0),
// or -1 when the mesh has been complete at least momentarily. Caller holds
// c.mu.
func (c *Conn) missingPeer() int {
	for j := 0; j < c.n; j++ {
		if j != c.cfg.ID && c.links[j].gen == 0 {
			return j
		}
	}
	return -1
}

// installLink records a fresh connection for peer and starts its reader.
// peerRound is the round the peer announced in its handshake: a peer behind
// our round is rejoining after a restart, and we replay our buffered outbox
// tail for the gap [peerRound, round] before going live. A gap the tail no
// longer covers is unrecoverable — the peer is demoted to silent rather
// than left permanently desynchronized.
func (c *Conn) installLink(peer int, conn net.Conn, peerRound uint64) {
	c.mu.Lock()
	l := &c.links[peer]
	if c.closed || l.state == linkSilent {
		c.mu.Unlock()
		conn.Close()
		return
	}
	if peerRound > c.frontier {
		c.frontier = peerRound
	}
	// Coalesce the replay tail into one pooled batch frame under the lock;
	// ship it after release as a single deadline-bounded write, so a gap of
	// G rounds costs one write(2) instead of G and the tail frames cannot
	// be evicted (and released) out from under the write. Rounds
	// [peerRound, c.round) are mandatory — the peer cannot close them
	// without our frame. The current round's frame is included when already
	// sent (its live write raced the link being down); receivers dedup per
	// (round, peer), so overlap with the live send is harmless.
	var replay *wire.Frame
	var replayFrames int
	total := 0
	for r := peerRound; r <= c.round; r++ {
		f := c.tailFrame(r, peer)
		if f == nil {
			if r == c.round {
				break // not sent yet; the live Exchange will cover it
			}
			// Unrecoverable gap: demote for the run.
			if l.conn != nil {
				l.conn.Close()
				l.conn = nil
			}
			l.state = linkSilent
			c.recordDemotionLocked(peer, wire.ReasonHandshake)
			l.gen++
			c.cond.Broadcast()
			c.mu.Unlock()
			conn.Close()
			return
		}
		total += f.Len()
		replayFrames++
	}
	if total > 0 {
		replay = c.arena.Buffer(total)
		off := 0
		for r := peerRound; r < peerRound+uint64(replayFrames); r++ {
			off += copy(replay.Bytes()[off:], c.tailFrame(r, peer).Bytes())
		}
	}
	if l.conn != nil {
		// The peer reconnected before we noticed the old connection die;
		// the new one supersedes it.
		l.conn.Close()
	}
	l.conn = conn
	l.state = linkUp
	l.gen++
	gen := l.gen
	// A frame the peer delivered over its previous link now counts again.
	c.have = c.upFrames(c.round)
	c.wg.Add(1)
	go c.readLoop(peer, gen, conn)
	c.cond.Broadcast()
	c.mu.Unlock()

	if replay != nil {
		c.write(peer, gen, conn, replay.Bytes(), replayFrames)
		replay.Release()
	}
}

// acceptLoop accepts (and re-accepts) connections from higher-id peers for
// the lifetime of the Conn.
func (c *Conn) acceptLoop(ln net.Listener) {
	defer c.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		go c.handleInbound(conn)
	}
}

// handleInbound authenticates one inbound connection by its handshake and
// installs it as the peer's link. Garbage handshakes are dropped without
// disturbing the mesh. The handshake is bidirectional — each side announces
// (id, current round) — so a rejoining party learns the mesh frontier and
// peers learn what outbox tail to replay.
func (c *Conn) handleInbound(conn net.Conn) {
	host := helloHost(conn)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return
	}
	if c.helloCount[host] >= c.cfg.HelloBurst {
		// Handshake churn from this host has exhausted its lifetime cap;
		// drop the connection before reading a byte of hello.
		c.mu.Unlock()
		c.hellosRejected.Add(1)
		conn.Close()
		return
	}
	c.helloCount[host]++
	c.inbound[conn] = struct{}{} // so Close can unblock the handshake read
	c.mu.Unlock()
	deadline := time.Now().Add(c.cfg.DialTimeout)
	id, peerRound, err := readHello(conn, deadline)
	c.mu.Lock()
	delete(c.inbound, conn)
	closed := c.closed
	round := c.round
	c.mu.Unlock()
	if closed || err != nil || id <= c.cfg.ID || id >= c.n {
		if !closed {
			c.hellosRejected.Add(1)
		}
		conn.Close()
		return
	}
	if err := writeHello(conn, c.cfg.ID, round, deadline); err != nil {
		conn.Close()
		return
	}
	c.installLink(id, conn, peerRound)
}

// handshakeAsDialer announces this party and reads the acceptor's reply,
// returning the acceptor's current round.
func (c *Conn) handshakeAsDialer(conn net.Conn, deadline time.Time) (uint64, error) {
	c.mu.Lock()
	round := c.round
	c.mu.Unlock()
	if err := writeHello(conn, c.cfg.ID, round, deadline); err != nil {
		return 0, err
	}
	_, peerRound, err := readHello(conn, deadline)
	return peerRound, err
}

// ID returns this party's identifier.
func (c *Conn) ID() transport.PartyID { return transport.PartyID(c.cfg.ID) }

// N returns the cluster size.
func (c *Conn) N() int { return c.n }

// T returns the corruption budget.
func (c *Conn) T() int { return c.cfg.T }

// Faulty returns the peers demoted to silent for the run — either caught
// violating the framing protocol or unreachable after all reconnect
// attempts. The slice is ordered by party id.
func (c *Conn) Faulty() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []int
	for j := range c.links {
		if c.links[j].state == linkSilent {
			out = append(out, j)
		}
	}
	return out
}

// BreakLink forcibly closes the current connection to peer, as a network
// fault would; the reconnect machinery then tries to restore it. It is a
// test hook for exercising degradation paths.
func (c *Conn) BreakLink(peer int) {
	if peer < 0 || peer >= c.n || peer == c.cfg.ID {
		return
	}
	c.mu.Lock()
	conn := c.links[peer].conn
	c.mu.Unlock()
	if conn != nil {
		conn.Close() // the read loop observes the failure and drives the state machine
	}
}

// Exchange implements one synchronous round: it ships this round's packets
// to every up peer (an empty frame to peers with none), waits up to Delta
// for all up peers' frames, and returns the delivered messages in sender
// order. It only stages the packets onto ExchangeVec, the Conn's one round
// body. A broadcast (transport.IsBroadcast) is one transport.All entry, so
// it goes out as one frame shared by every link; every other packet
// addressed to a party is its own entry, a one-piece view of its payload;
// a packet addressed out of range — transport.All included — is dropped.
// The payloads delivered alias pooled frames (and, for self-delivery, the
// Conn's selfBuf), and the slice itself is the Conn's: read-only, valid
// until the next Exchange or Close — see transport.Net.
func (c *Conn) Exchange(out []transport.Packet) ([]transport.Message, error) {
	if cap(c.pieces) < len(out) {
		c.pieces = make([][]byte, len(out))
		c.staged = make([]transport.VecPacket, 0, len(out))
	}
	pieces, staged := c.pieces[:len(out)], c.staged[:0]
	if transport.IsBroadcast(out, c.n) {
		pieces[0] = out[0].Payload
		staged = append(staged, transport.VecPacket{To: transport.All, Tag: out[0].Tag, Vec: pieces[:1:1]})
	} else {
		for i := range out {
			if p := &out[i]; p.To >= 0 && p.To < c.n {
				pieces[i] = p.Payload
				staged = append(staged, transport.VecPacket{To: p.To, Tag: p.Tag, Vec: pieces[i : i+1 : i+1]})
			}
		}
	}
	in, err := c.ExchangeVec(staged)
	clear(pieces) // sent: don't pin the caller's payloads
	c.staged = staged[:0]
	return in, err
}

// ExchangeVec implements transport.VecNet, and is the round body Exchange
// stages onto: one synchronous round whose outgoing payloads are
// scatter-gather vectors. Each packet's pieces are copied exactly once,
// straight into the pooled round frame — multiplexers stacking a routing
// header on payloads they don't own pay no flattening copy of their own. A
// round of nothing but transport.All entries (an empty round included) is
// one frame, encoded straight from them (this party's own list is then
// every peer's) and shared by every link; any other round expands All in
// place into every peer's list and encodes each peer its own frame. On the
// wire and at the receiver the round is indistinguishable from Exchange
// over the concatenated payloads.
func (c *Conn) ExchangeVec(out []transport.VecPacket) ([]transport.Message, error) {
	r, err := c.beginRound()
	if err != nil {
		return nil, err
	}
	self := c.cfg.ID
	all := true
	for i := range out {
		if out[i].To != transport.All {
			all = false
			break
		}
	}
	for i := range out {
		switch p := &out[i]; {
		case all:
			c.vecs[self] = append(c.vecs[self], p.Vec)
		case p.To == transport.All:
			for peer := range c.vecs {
				c.vecs[peer] = append(c.vecs[peer], p.Vec)
			}
		case p.To >= 0 && p.To < c.n:
			c.vecs[p.To] = append(c.vecs[p.To], p.Vec)
		}
	}
	// Self-delivery outlives the caller's pieces (the contract frees them
	// when ExchangeVec returns) but not the next Exchange, so it is flattened
	// into one bump buffer the Conn reuses. It grows by append: a grown
	// buffer leaves its old array, which the payloads carved so far point
	// into, as it is.
	buf := c.selfBuf[:0]
	for _, v := range c.vecs[self] {
		mark := len(buf)
		for _, piece := range v {
			buf = append(buf, piece...)
		}
		c.self = append(c.self, transport.Message{From: self, Payload: buf[mark:len(buf):len(buf)]})
	}
	c.selfBuf = buf
	if all {
		c.sendRound(r, c.arena.EncodeFrameVecs(r, c.vecs[self]))
	} else {
		frames := c.peerFrames()
		for peer, payloads := range c.vecs {
			if peer != self {
				frames[peer] = c.arena.EncodeFrameVecs(r, payloads)
			}
		}
		c.sendRound(r, nil)
	}
	for peer, payloads := range c.vecs {
		clear(payloads) // sent: the pieces are the caller's again
		c.vecs[peer] = payloads[:0]
	}
	return c.awaitRound(r)
}

// peerFrames returns the staging list for a per-peer round's frames.
func (c *Conn) peerFrames() []*wire.Frame {
	if c.frames == nil {
		c.frames = make([]*wire.Frame, c.n)
	}
	return c.frames
}

var _ transport.VecNet = (*Conn)(nil)

// beginRound opens a synchronous round: it snapshots the round number,
// releases the frames behind the previous round's payloads — the "valid
// until the next Exchange" edge of transport.Net's lifetime rule — and
// empties the self-delivery scratch for the caller to stage into.
func (c *Conn) beginRound() (uint64, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, ErrClosed
	}
	r := c.round
	spent := c.spent
	c.spent = c.spent[:0]
	c.mu.Unlock()
	for _, f := range spent {
		f.Release()
	}
	c.self = c.self[:0]
	return r, nil
}

// roundEntries returns round r's entry slice, opening the round — with a
// retired slice when one is free — if no frame for it has arrived yet.
// Caller holds c.mu.
func (c *Conn) roundEntries(r uint64) []inboxEntry {
	entries := c.byRound[r]
	if entries == nil {
		if k := len(c.free); k > 0 {
			entries, c.free = c.free[k-1], c.free[:k-1]
		} else {
			entries = make([]inboxEntry, c.n)
		}
		c.byRound[r] = entries
	}
	return entries
}

// awaitRound blocks until round r (= c.round) closes — all up peers' frames
// arrived or Δ expired — then advances the round clock and returns the
// delivered messages in sender order (each sender's in the order it sent
// them), self-deliveries at this party's own index. The inbox is built here,
// once, in the Conn's own slice, and the round's entry slice goes back to
// the free list for the read loops.
//
// It is woken once per round by the read loop whose frame completes the
// count c.have, and otherwise only by a link-state change, the Δ timer or
// Close; it recounts only when c.have says the round may be complete.
func (c *Conn) awaitRound(r uint64) ([]transport.Message, error) {
	deadline := time.Now().Add(c.cfg.Delta)
	c.timer.Reset(c.cfg.Delta)
	defer c.timer.Stop()

	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.closed {
			return nil, ErrClosed
		}
		if exp := c.expectedPeers(); c.have >= exp {
			c.have = c.upFrames(r)
			if c.have >= exp {
				break
			}
		}
		if time.Now().After(deadline) {
			break
		}
		c.cond.Wait()
	}
	entries := c.roundEntries(r)
	msgs := c.inbox[:0]
	for peer := range entries {
		if peer == c.cfg.ID {
			msgs = append(msgs, c.self...)
			continue
		}
		e := &entries[peer]
		if e.frame == nil {
			continue
		}
		for _, p := range e.payloads {
			msgs = append(msgs, transport.Message{From: peer, Payload: p})
		}
		// Keep the pooled buffer alive for the caller; the next Exchange
		// releases it.
		c.spent = append(c.spent, e.frame)
		e.empty()
	}
	c.inbox = msgs
	delete(c.byRound, r)
	if len(c.free) <= c.cfg.RoundHorizon {
		c.free = append(c.free, entries)
	}
	c.round = r + 1
	c.roundNow.Store(r + 1) // release the round clock to the read loops' gates
	// Frames that arrived early for the new round were not counted.
	c.have = c.upFrames(r + 1)
	return msgs, nil
}

// upFrames counts round r's delivered frames from peers whose link is up.
// Only those count toward the quorum of up peers: the frame a peer sent
// before its link went down is still delivered, but must not stand in for a
// live peer's that is yet to arrive. Caller holds c.mu.
func (c *Conn) upFrames(r uint64) int {
	have := 0
	for peer, e := range c.byRound[r] {
		if e.frame != nil && c.links[peer].state == linkUp {
			have++
		}
	}
	return have
}

// Stats returns cumulative counters for this Conn. Demotions and Peers
// are sorted by party id.
func (c *Conn) Stats() Stats {
	s := Stats{
		FramesSent:     c.framesSent.Load(),
		Writes:         c.writes.Load(),
		BytesSent:      c.bytesSent.Load(),
		HellosRejected: c.hellosRejected.Load(),
		FramesDropped:  c.framesDropped.Load(),
	}
	c.mu.Lock()
	s.Demotions = append(s.Demotions, c.demotions...)
	c.mu.Unlock()
	sort.Slice(s.Demotions, func(i, j int) bool { return s.Demotions[i].Peer < s.Demotions[j].Peer })
	demoted := make(map[int]wire.Reason, len(s.Demotions))
	for _, d := range s.Demotions {
		demoted[d.Peer] = d.Reason
	}
	for j := 0; j < c.n; j++ {
		if j == c.cfg.ID {
			continue
		}
		s.Peers = append(s.Peers, PeerStats{
			Peer:              j,
			AdmissionCounters: c.adm[j].Counters(),
			Demoted:           demoted[j],
		})
	}
	return s
}

// expectedPeers counts peers the round should wait for: only links that are
// up. Down peers would cost a full Δ every round; silent peers are gone for
// good. Caller holds c.mu.
func (c *Conn) expectedPeers() int {
	exp := 0
	for j := range c.links {
		if j != c.cfg.ID && c.links[j].state == linkUp {
			exp++
		}
	}
	return exp
}

// Close tears down the mesh, unblocking any Exchange in flight.
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	close(c.done)
	for j := range c.links {
		if c.links[j].conn != nil {
			c.links[j].conn.Close()
			c.links[j].conn = nil
		}
		c.links[j].gen++
	}
	for conn := range c.inbound {
		conn.Close()
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	if c.listener != nil {
		c.listener.Close()
	}
	c.wg.Wait()
	return nil
}

// readLoop consumes frames from one connection until it fails. gen pins the
// connection generation: if the link has been replaced or torn down since,
// the loop's observations are stale and discarded.
func (c *Conn) readLoop(peer int, gen uint64, conn net.Conn) {
	defer c.wg.Done()
	idle := c.idleTimeout()
	// The counting wrapper lets a deadline expiry be classified: bytes
	// consumed mid-frame mean the peer is alive but trickling (slow-loris,
	// demotable), no bytes at all mean the connection is presumed dead
	// (reconnectable).
	src := &countingReader{conn: conn}
	// The buffered reader turns the codec's byte-at-a-time varint reads
	// into memory reads; on a raw conn every varint byte is its own
	// read(2) syscall (and, through the io.Reader interface, a heap
	// allocation for the 1-byte scratch).
	br := bufio.NewReaderSize(src, readBufferSize)
	gate := c.adm[peer]
	var scratch [][]byte
	// The idle deadline is re-armed only once it has drifted by idle/8, so
	// every frame read starts with between 7/8 of idle and all of it left.
	var armed time.Time
	for {
		if now := time.Now(); armed.Sub(now) < idle-idle/8 {
			armed = now.Add(idle)
			conn.SetReadDeadline(armed)
		}
		gate.Advance(c.roundNow.Load())
		consumed := src.n - int64(br.Buffered())
		round, payloads, frame, err := c.arena.ReadFrameIntoGated(br, maxFrame, scratch, gate)
		if err != nil {
			if isTimeout(err) && src.n-int64(br.Buffered()) > consumed {
				// The deadline expired with partial-frame progress: the peer
				// is alive and trickling, not dead. (A dead peer mid-frame
				// surfaces as io.ErrUnexpectedEOF — an I/O error — so only
				// live connections can earn the stall verdict.)
				err = wire.StallError(fmt.Sprintf("mid-frame trickle past the %v read deadline", idle))
			}
			c.linkLost(peer, gen, err)
			return
		}
		c.mu.Lock()
		if c.closed || c.links[peer].gen != gen {
			c.mu.Unlock()
			frame.Release() // nothing retained the payloads
			return
		}
		scratch = payloads[:0] // unless the inbox takes the headers below
		switch {
		case round < c.round: // frames for completed rounds are stale
		case round-c.round > uint64(c.cfg.RoundHorizon):
			// Beyond the buffering horizon: drop, don't demote — an honest
			// fast peer can legitimately run ahead of a stalled party, but
			// holding frames for it unboundedly would hand a hostile one a
			// memory lever.
			c.framesDropped.Add(1)
		default:
			if e := &c.roundEntries(round)[peer]; e.frame == nil {
				// Ownership moves to the inbox, headers included; the slot's
				// emptied header slice is the next read's scratch.
				scratch = e.payloads
				*e = inboxEntry{payloads: payloads, frame: frame}
				frame = nil
				if round == c.round {
					c.have++
					if c.have >= c.expectedPeers() {
						c.cond.Broadcast() // the frame that completes the round
					}
				}
			}
		}
		c.mu.Unlock()
		if frame != nil {
			// Stale round or duplicate delivery: the payloads were never
			// handed to anyone, so the buffer goes straight back.
			frame.Release()
		}
	}
}

// countingReader counts bytes the connection has delivered, so the read
// loop can measure per-frame progress. It is touched only by the one read
// loop that owns it (bufio fills and the post-error check run on the same
// goroutine), so the counter needs no synchronization.
type countingReader struct {
	conn net.Conn
	n    int64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.conn.Read(p)
	cr.n += int64(n)
	return n, err
}

// isTimeout reports whether err is a read-deadline expiry (as opposed to a
// reset, EOF, or protocol violation).
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// idleTimeout is how long a connection may sit without a complete frame
// before it is presumed dead. Every live peer sends every round, so normal
// traffic arrives at least once per Δ; 8Δ of silence (floored at 2s so
// millisecond-Δ tests don't flap) means the connection itself is gone.
func (c *Conn) idleTimeout() time.Duration {
	idle := 8 * c.cfg.Delta
	if idle < 2*time.Second {
		idle = 2 * time.Second
	}
	return idle
}

// linkLost transitions a link out of up after a read or write failure on
// generation gen. Frame-protocol violations (wire.ErrFrame) and ingress
// verdicts (wire.ErrAdmission: budget, rate, stall) demote the peer to
// silent for the run with a structured reason; I/O failures mark the link
// down and, on the dialing side, kick off reconnection.
func (c *Conn) linkLost(peer int, gen uint64, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	l := &c.links[peer]
	if c.closed || l.gen != gen || l.state == linkSilent {
		return
	}
	if l.conn != nil {
		l.conn.Close()
		l.conn = nil
	}
	l.gen++
	reason := wire.ReasonNone
	var aerr *wire.AdmissionError
	switch {
	case errors.As(err, &aerr):
		reason = aerr.Reason
	case errors.Is(err, wire.ErrFrame):
		reason = wire.ReasonProtocol
	}
	if reason != wire.ReasonNone {
		l.state = linkSilent
		c.recordDemotionLocked(peer, reason)
	} else {
		l.state = linkDown
		if peer < c.cfg.ID && !l.reconnecting {
			l.reconnecting = true
			go c.reconnectLoop(peer)
		}
	}
	c.cond.Broadcast()
}

// recordDemotionLocked appends the structured verdict for a peer's
// transition to silent and purges the peer's buffered future-round frames.
// The purge matters under attack: a flooder pre-delivers frames for many
// rounds before it trips the rate limiter, and if those stayed buffered
// they would both count toward round completion (closing rounds before
// honest frames arrive) and be delivered rounds after the sender was
// judged hostile. Caller holds c.mu; the link state machine admits at
// most one such transition per peer.
func (c *Conn) recordDemotionLocked(peer int, reason wire.Reason) {
	c.demotions = append(c.demotions, Demotion{Peer: peer, Reason: reason, Round: c.round})
	for _, entries := range c.byRound {
		if e := &entries[peer]; e.frame != nil {
			e.frame.Release()
			e.empty()
		}
	}
}

// reconnectLoop re-dials a down peer with exponential backoff and jitter.
// It runs on the dialing side only (the accepting side re-accepts
// passively). Exhausting the attempts demotes the peer to silent.
//
// The loop is deliberately not in c.wg: Close must not block behind an
// in-flight dial. Every state change is guarded by c.closed.
func (c *Conn) reconnectLoop(peer int) {
	backoff := c.cfg.ReconnectBase
	for attempt := 0; attempt < c.cfg.ReconnectAttempts; attempt++ {
		wait := backoff + time.Duration(rand.Int63n(int64(backoff)))
		backoff *= 2
		// Cap the backoff so a long-absent peer (crashed, checkpointing,
		// restarting) is probed about once a second rather than ever more
		// rarely; the rejoin path depends on a timely re-dial.
		if backoff > time.Second {
			backoff = time.Second
		}
		select {
		case <-c.done:
			return
		case <-time.After(wait):
		}
		conn, err := net.DialTimeout("tcp", c.cfg.Addrs[peer], c.cfg.DialTimeout)
		if err != nil {
			continue
		}
		peerRound, err := c.handshakeAsDialer(conn, time.Now().Add(c.cfg.DialTimeout))
		if err != nil {
			conn.Close()
			continue
		}
		c.mu.Lock()
		l := &c.links[peer]
		if c.closed || l.state != linkDown {
			c.mu.Unlock()
			conn.Close()
			return
		}
		l.reconnecting = false
		c.mu.Unlock()
		c.installLink(peer, conn, peerRound)
		return
	}
	c.mu.Lock()
	l := &c.links[peer]
	l.reconnecting = false
	if !c.closed && l.state == linkDown {
		l.state = linkSilent
		c.recordDemotionLocked(peer, wire.ReasonUnreachable)
	}
	c.cond.Broadcast()
	c.mu.Unlock()
}

// FrontierGap reports how many rounds ahead of this party's ResumeRound the
// mesh was when it (re)joined — the restart-to-rejoin latency in rounds. A
// fresh party's gap is 0; a rejoining party's gap is how much of its peers'
// outbox tails had to be replayed.
func (c *Conn) FrontierGap() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.frontier <= c.cfg.ResumeRound {
		return 0
	}
	return c.frontier - c.cfg.ResumeRound
}

// sendRound ships round r: shared to every peer when the round is a
// broadcast, else each peer its own frame from c.frames. The rejoin tail
// owns the frames from here. One c.mu section stores them in round r's slot
// — evicting round r − RejoinWindow, which held it, a shared frame once —
// and snapshots every link; the writes follow outside c.mu. The frames go in
// before the writes, so a peer that rejoins while its link is down finds
// the frame it missed. A peer that is down or silent is skipped, and a
// write failure drives the link state machine instead of failing the round.
// Only this goroutine evicts, and replay reads tail frames under c.mu, so
// neither a write nor a replay can observe a released frame.
func (c *Conn) sendRound(r uint64, shared *wire.Frame) {
	slot := &c.tails[r%uint64(len(c.tails))]
	c.mu.Lock()
	slot.evict()
	slot.round, slot.shared = r, shared
	if shared == nil {
		slot.peers, c.frames = c.frames, slot.peers
	}
	for peer := range c.links {
		// Close nils every conn, so a closed Conn snapshots no link.
		if l := &c.links[peer]; l.state == linkUp && l.conn != nil {
			c.sendTo[peer] = sendTarget{conn: l.conn, gen: l.gen}
		}
	}
	c.mu.Unlock()
	for peer, to := range c.sendTo {
		if to.conn != nil {
			c.write(peer, to.gen, to.conn, slot.frame(r, peer).Bytes(), 1)
		}
	}
	clear(c.sendTo)
}

// tailFrame returns the frame peer was sent in round r while the rejoin
// tail still holds it, else nil. Caller holds c.mu.
func (c *Conn) tailFrame(r uint64, peer int) *wire.Frame {
	return c.tails[r%uint64(len(c.tails))].frame(r, peer)
}

// write performs one deadline-bounded write on conn of b, one pooled
// buffer holding that many encoded frames — a round frame, or a replay batch
// coalesced into one buffer so that the kernel crossing is one syscall
// however many rounds it carries. The socket's write deadline is re-armed
// only once it has drifted by Δ/8, so every write starts with between 7Δ/8
// and Δ left: a peer that stops reading fails the blocked write, and takes
// its link down, within Δ.
func (c *Conn) write(peer int, gen uint64, conn net.Conn, b []byte, frames int) {
	c.wmu[peer].Lock()
	var err error
	now, d := time.Now(), &c.wdl[peer]
	if d.conn != conn || d.at.Sub(now) < c.cfg.Delta-c.cfg.Delta/8 {
		at := now.Add(c.cfg.Delta)
		if err = conn.SetWriteDeadline(at); err == nil {
			d.conn, d.at = conn, at
		}
	}
	if err == nil {
		//calint:ignore mutexhold wmu is a per-socket leaf mutex ordering concurrent writers (live send vs rejoin replay); the write is Delta-deadline-bounded and Close unblocks it by closing the conn
		_, err = conn.Write(b)
	}
	c.wmu[peer].Unlock()
	c.writes.Add(1)
	c.framesSent.Add(uint64(frames))
	c.bytesSent.Add(uint64(len(b)))
	if err != nil {
		c.linkLost(peer, gen, err)
	}
}

// writeHello sends one direction of the (id, round) handshake.
func writeHello(conn net.Conn, id int, round uint64, deadline time.Time) error {
	if err := conn.SetWriteDeadline(deadline); err != nil {
		return err
	}
	w := wire.NewWriter(12)
	w.Uvarint(uint64(id))
	w.Uvarint(round)
	_, err := conn.Write(w.Finish())
	if err == nil {
		err = conn.SetWriteDeadline(time.Time{})
	}
	return err
}

// readHello reads one direction of the (id, round) handshake. The read is
// bounded to helloMaxBytes — an unauthenticated dialer never triggers a
// larger read — and absurd id or round announcements are rejected.
func readHello(conn net.Conn, deadline time.Time) (int, uint64, error) {
	if err := conn.SetReadDeadline(deadline); err != nil {
		return 0, 0, err
	}
	lr := io.LimitReader(conn, helloMaxBytes)
	v, err := wire.ReadUvarint(lr)
	if err != nil {
		return 0, 0, err
	}
	round, err := wire.ReadUvarint(lr)
	if err != nil {
		return 0, 0, err
	}
	if err := conn.SetReadDeadline(time.Time{}); err != nil {
		return 0, 0, err
	}
	if v > 1<<20 {
		return 0, 0, fmt.Errorf("tcpnet: absurd peer id %d", v)
	}
	if round > maxHelloRound {
		return 0, 0, fmt.Errorf("tcpnet: absurd hello round %d", round)
	}
	return int(v), round, nil
}

// helloHost extracts the remote host (sans port) for the per-host
// handshake cap; every reconnect from one machine shares one count.
func helloHost(conn net.Conn) string {
	addr := conn.RemoteAddr().String()
	if host, _, err := net.SplitHostPort(addr); err == nil {
		return host
	}
	return addr
}
