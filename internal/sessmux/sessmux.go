// Package sessmux multiplexes many independent agreement SESSIONS over one
// physical per-peer link set: whole protocol runs — each session has its
// own participant count n, corruption budget t, inputs, and lifecycle —
// share one transport, so a deployment holds one TCP mesh open instead of
// one per agreement. Parallel runs the paper's parallel composition on the
// same core: k equal-shape instances are k sessions that abort together.
//
// # Scheduling model
//
// The mux advances in ticks. One tick is one physical round of the base
// transport and carries exactly one virtual round of every live local
// session: a tick closes when all live sessions have submitted their
// round (Exchange), the merged traffic ships as one base round — through
// the base's ExchangeVec when it is a transport.VecNet, every session's
// frames for the same peer riding in the same physical frame, payloads by
// reference down to the base; otherwise flattened through a
// transport.Flat the mux keeps — and the inbox demultiplexes by session
// id. A session's round costs the tick O(1) whatever the base's width N:
// a full-width session's broadcast —
// Exchange over its n packets on one payload slice, as
// transport.ExchangeAll builds them, found by that identity
// (transport.IsBroadcast) — is one entry addressed to transport.All, not N
// packets, and demux routes
// each sender's frames by a merge-join of their ascending session ids
// against the open sessions, falling back to a map lookup only for a
// sender that breaks that order. The base transport's blocking
// round is the cross-party synchronizer: parties whose session sets differ
// still tick in lock step, and a party with no live sessions keeps the
// clock with Idle.
//
// # Lock-step contract
//
// Every participant of session sid must open it at the same tick with the
// same (n, t), and its participants are base parties 0..n-1. Closing is
// local: a closed session simply stops contributing traffic, which peers
// observe as omission — one session's failure never tears down its
// siblings (sessions are independent protocol runs with independent
// fates; sessions that must fall together are run with Parallel).
//
// # Backpressure
//
// One deterministic bound, per session: at most 64·n_s messages per tick,
// shedding the heaviest sender's oldest message, so a flooding peer
// degrades itself and never a sibling session. An honest round is n_s
// messages. No whole-tick bound is needed: the session caps already sum
// to at most 64·N·live for an N-party base. The policy is a pure function
// of delivery order, so fault-injection replays stay digest-exact.
package sessmux

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"

	"convexagreement/internal/transport"
)

// Errors returned by sessions and Parallel.
var (
	// ErrClosed reports an Exchange on a session that was closed locally.
	ErrClosed = errors.New("sessmux: session closed")
	// ErrAborted reports that a sibling instance of a Parallel composition
	// failed, tearing down the whole composition on this party.
	ErrAborted = errors.New("sessmux: composition aborted by a failed instance")
)

// inboxPerParticipant bounds a session's per-tick inbox at this many
// messages per participant, 64·n_s in all.
const inboxPerParticipant = 64

// keptInboxes bounds how many closed sessions' inbox arrays a Mux keeps:
// one wave of the deployed mesh's concurrent sessions.
const keptInboxes = 64

// Mux multiplexes sessions over one base transport. Create with New, open
// sessions with Open, keep the tick clock with Idle when none are live.
type Mux struct {
	base transport.Net
	n    int              // base.N(): a session this wide broadcasts as one transport.All entry
	vec  transport.VecNet // the base, when it takes scatter-gather packets: nothing is copied here
	flat transport.Flat   // otherwise the merged tick is flattened here, into buffers kept across ticks

	mu   sync.Mutex
	cond *sync.Cond
	open map[uint64]*Session
	// order lists the open sessions by ascending sid: the order merge ships
	// them in and demux's merge-join walks.
	order []*Session
	// Single-use sids: every sid below retiredBelow counts as used, and
	// retired holds the used ones at or above it. The watermark advances
	// over used and live sids as they become contiguous, so an ascending
	// sid sequence keeps the set at the size of its reordering window
	// instead of one entry per session ever run.
	retiredBelow uint64
	retired      map[uint64]struct{}
	live         int
	submitted    int
	tick         uint64
	err          error

	stats Stats
	// inboxes keeps closed sessions' inbox arrays for Open to hand on, at
	// most keptInboxes. Only the array is reused, never the *Session, so a
	// stale handle keeps getting ErrClosed.
	inboxes [][]transport.Message

	// Merge scratch, reused across ticks: the base is done with the pieces
	// when its round returns.
	hdrBuf  []byte
	vecBuf  [][]byte
	pktsBuf []transport.VecPacket
}

// Stats are cumulative counters for one Mux. Packets/Ticks is the
// coalescing ratio: how many session frames ride in each physical round
// (on a TCP base, each peer's share of a tick is one write).
// BytesReferenced counts payload bytes handed to a VecNet base by
// reference; BytesCopied counts payload bytes the mux flattened for a
// base without ExchangeVec — on a VecNet base it stays 0.
type Stats struct {
	Ticks           uint64 // physical rounds driven
	Packets         uint64 // session frames shipped, all sessions coalesced
	BytesReferenced uint64 // payload bytes sent zero-copy (VecNet base)
	BytesCopied     uint64 // payload bytes flattened for a plain base
	SessionShed     uint64 // messages shed by the per-session bound
	TickShed        uint64 // always 0: there is no whole-tick bound (kept for readers of the field)
}

// New creates a session mux over base. The base must not be driven by
// anyone else from this point on: the mux owns its round clock.
func New(base transport.Net) *Mux {
	m := &Mux{
		base:    base,
		n:       base.N(),
		open:    make(map[uint64]*Session),
		retired: make(map[uint64]struct{}),
	}
	m.vec, _ = base.(transport.VecNet)
	m.cond = sync.NewCond(&m.mu)
	return m
}

// poison fails the whole mux with err, as a base failure does: every
// blocked and every future Exchange, Open and Idle returns it.
func (m *Mux) poison(err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err == nil {
		m.err = err
	}
	m.cond.Broadcast()
}

// Stats returns a snapshot of the cumulative counters.
func (m *Mux) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Live reports the number of locally live sessions.
func (m *Mux) Live() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.live
}

// Open starts session sid with n participants (base parties 0..n-1) and
// corruption budget t. Every participant must open it at the same tick
// with the same (n, t); this party must be a participant. Session ids are
// single-use — reopening a retired sid would let a peer's late frames
// from the old lifetime leak into the new one, so it is refused — and
// meant to ascend: see retire for how far out of order they may come.
func (m *Mux) Open(sid uint64, n, t int) (*Session, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return nil, m.err
	}
	if n < 1 || n > m.n {
		return nil, fmt.Errorf("sessmux: session %d: n=%d outside 1..%d", sid, n, m.n)
	}
	if t < 0 || 3*t >= n {
		return nil, fmt.Errorf("sessmux: session %d: t=%d violates 3t < n=%d", sid, t, n)
	}
	if int(m.base.ID()) >= n {
		return nil, fmt.Errorf("sessmux: session %d: party %d is not a participant (n=%d)", sid, m.base.ID(), n)
	}
	if _, dup := m.open[sid]; dup {
		return nil, fmt.Errorf("sessmux: session %d already open", sid)
	}
	if _, used := m.retired[sid]; used || sid < m.retiredBelow {
		return nil, fmt.Errorf("sessmux: session id %d already used", sid)
	}
	s := &Session{m: m, sid: sid, n: n, t: t, inbox: m.inbox(n)}
	m.open[sid] = s
	i, _ := slices.BinarySearchFunc(m.order, sid, bySid)
	m.order = slices.Insert(m.order, i, s)
	m.live++
	return s, nil
}

// inbox returns an inbox array for a new session of n: a closed session's,
// cleared, when the last one kept has room for the n messages of an honest
// round, else a fresh one sized for them. The clear is here, not at Close:
// a closed session's last inbox is still read by Parallel's callers after
// the composition returns, until the mux reuses the array. Caller holds
// m.mu.
func (m *Mux) inbox(n int) []transport.Message {
	if k := len(m.inboxes); k > 0 && cap(m.inboxes[k-1]) >= n {
		in := m.inboxes[k-1]
		m.inboxes[k-1] = nil
		m.inboxes = m.inboxes[:k-1]
		clear(in[:cap(in)])
		return in
	}
	return make([]transport.Message, 0, n)
}

// Idle keeps the tick clock for a party with no live sessions: it drives
// (or waits out) exactly one tick, exchanging nothing. Call it once per
// tick for as long as peers still run sessions this party is not part of.
func (m *Mux) Idle() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return m.err
	}
	my := m.tick
	if m.live == 0 {
		m.flush()
		return m.err
	}
	for m.tick == my && m.err == nil {
		m.cond.Wait()
	}
	return m.err
}

// Session is one live agreement session: a transport.Net whose rounds are
// the mux's ticks. Drive it from exactly one goroutine; Close it when the
// protocol finishes so sibling sessions stop waiting for it.
type Session struct {
	m   *Mux
	sid uint64
	n   int
	t   int

	pended  bool
	closed  bool
	pending []transport.Packet
	// all marks a pending full-width broadcast: pending[0] goes to every
	// base party as one transport.All entry.
	all bool
	// inbox is refilled by every tick's demux: scratch under
	// transport.Net's lifetime rule, which dies with the session.
	inbox []transport.Message
}

// Sid returns the session id.
func (s *Session) Sid() uint64 { return s.sid }

// ID returns this party's identifier — session participants are base
// parties under their base ids.
func (s *Session) ID() transport.PartyID { return s.m.base.ID() }

// N returns the session's participant count.
func (s *Session) N() int { return s.n }

// T returns the session's corruption budget.
func (s *Session) T() int { return s.t }

// Exchange submits this session's virtual round and blocks until the tick
// closes. Packets to parties outside the session are dropped. A full-width
// session's broadcast (transport.IsBroadcast: a transport.ExchangeAll over
// every base party) is merged as its first packet, addressed to
// transport.All; a narrower session's broadcast is merged packet by packet,
// like any other round.
func (s *Session) Exchange(out []transport.Packet) ([]transport.Message, error) {
	all := s.n == s.m.n && transport.IsBroadcast(out, s.n)
	m := s.m
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return nil, m.err
	}
	if s.closed {
		return nil, ErrClosed
	}
	if s.pended {
		return nil, fmt.Errorf("sessmux: session %d submitted its round twice", s.sid)
	}
	my := m.tick
	s.pending, s.all = out, all
	s.pended = true
	m.submitted++
	m.maybeFlush()
	for m.tick == my && m.err == nil {
		m.cond.Wait()
	}
	if m.err != nil {
		return nil, m.err
	}
	return s.inbox, nil
}

// Close retires the session locally. Peers are not told: they observe
// omission from this party, which byzantine-tolerant sessions absorb
// within their corruption budget. Closing between Exchanges (never
// concurrently with one) is the caller's obligation; Parallel does it right.
func (s *Session) Close() {
	m := s.m
	m.mu.Lock()
	defer m.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	if s.pended {
		s.pended = false
		s.pending, s.all = nil, false
		m.submitted--
	}
	delete(m.open, s.sid)
	i, _ := slices.BinarySearchFunc(m.order, s.sid, bySid)
	m.order = slices.Delete(m.order, i, i+1)
	m.retire(s.sid)
	m.live--
	// The inbox's lifetime ends here (transport.Net's rule): keep the array
	// for a later Open.
	if len(m.inboxes) < keptInboxes {
		m.inboxes = append(m.inboxes, s.inbox[:0])
	}
	s.inbox = nil
	// The departed session may have been the last holdout of the tick.
	m.maybeFlush()
}

// retiredWindow bounds the retired set: how far out of ascending order
// sids may be issued before a never-used low sid is refused as used.
const retiredWindow = 1024

// retire records sid as used and advances the watermark over every sid
// that is used or still live (a live sid below the watermark is refused
// as open now and as used once it closes). A never-used sid — a sequence
// that starts at 1, a skipped number — would pin the watermark forever, so
// once the set outgrows retiredWindow the watermark jumps the gap to the
// lowest remembered sid. Caller holds m.mu.
func (m *Mux) retire(sid uint64) {
	if sid < m.retiredBelow {
		return
	}
	m.retired[sid] = struct{}{}
	if len(m.retired) > retiredWindow {
		m.retiredBelow = sid
		for used := range m.retired {
			m.retiredBelow = min(m.retiredBelow, used)
		}
	}
	for m.retiredBelow != ^uint64(0) {
		_, used := m.retired[m.retiredBelow]
		if _, live := m.open[m.retiredBelow]; !used && !live {
			break
		}
		delete(m.retired, m.retiredBelow)
		m.retiredBelow++
	}
}

// Parallel runs the paper's "Π₁, …, Π_k in parallel" over base: instance i
// is fns[i] driven over session i of a fresh mux, so one physical round
// carries the current virtual round of every live instance and the
// composition takes max(ROUNDS(Π_i)) rounds instead of their sum. All k
// sessions are opened at the base's (n, t) before any is driven, so they
// start on the same tick; each is closed when its function returns. The
// first instance to fail poisons the mux: every sibling's next Exchange
// returns an error wrapping ErrAborted. Parallel waits for every instance
// and returns their errors joined.
//
// Lock-step soundness: every honest party must call Parallel at the same
// physical round with the same k, and instance i must run the same
// protocol everywhere. The paper's protocols finish instance i in the
// same virtual round on every honest party, so the set of live instances —
// and hence the tick schedule — stays identical across honest parties.
func Parallel(base transport.Net, fns []func(net transport.Net) error) error {
	if len(fns) == 0 {
		return errors.New("sessmux: parallel composition of zero instances")
	}
	m := New(base)
	sessions := make([]*Session, len(fns))
	for i := range sessions {
		s, err := m.Open(uint64(i), base.N(), base.T())
		if err != nil {
			return err
		}
		sessions[i] = s
	}
	errs := make([]error, len(fns))
	var wg sync.WaitGroup
	for i, fn := range fns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Poison before Close: a close can complete the tick, and the
			// siblings must see the abort, not one more round without i.
			if errs[i] = fn(sessions[i]); errs[i] != nil {
				m.poison(fmt.Errorf("%w: instance %d: %v", ErrAborted, i, errs[i]))
			}
			sessions[i].Close()
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// maybeFlush closes the tick once every live session has submitted.
// Caller holds m.mu; the base Exchange happens under the lock, which is
// safe because every other user of this mux is blocked in cond.Wait.
func (m *Mux) maybeFlush() {
	if m.err != nil || m.live == 0 || m.submitted < m.live {
		return
	}
	m.flush()
}

// flush runs one physical round: merge in ascending session order (map
// order would break seed-exact fault-injection replay), exchange, demux,
// shed, advance the tick. Every open session has submitted (Idle flushes
// only with none open). Caller holds m.mu.
func (m *Mux) flush() {
	in, err := m.merge()
	if err != nil {
		// A base failure poisons the whole mux: without the shared round
		// clock no session can make progress.
		m.err = fmt.Errorf("sessmux: physical round: %w", err)
		m.cond.Broadcast()
		return
	}
	m.stats.Ticks++
	m.demux(in)

	for _, s := range m.order {
		s.pended = false
		s.pending, s.all = nil, false
	}
	m.submitted = 0
	m.tick++
	m.cond.Broadcast()
}

// bySid orders sessions for the binary searches over Mux.order.
func bySid(s *Session, sid uint64) int { return cmp.Compare(s.sid, sid) }

// demux routes delivered messages to their sessions and sheds past each
// session's bound. Each session's inbox is refilled in place; its driver is
// blocked in the Exchange that ends the previous inbox's lifetime.
//
// An honest sender's frames arrive in the ascending sid order its merge
// shipped them in, so each sender's run of messages is merge-joined against
// m.order with one cursor; a frame whose sid is below the sender's last one
// (a byzantine or replayed order) is looked up in m.open instead. Either
// way a frame reaches the session the map would have named. Caller holds
// m.mu.
func (m *Mux) demux(in []transport.Message) {
	for _, s := range m.order {
		s.inbox = s.inbox[:0]
	}
	var counts map[uint64][]int // per session: messages held per sender
	from, next, last := transport.PartyID(-1), 0, uint64(0)
	for _, msg := range in {
		sid, payload, ok := unframe(msg.Payload)
		if !ok {
			continue // undecodable byzantine frame
		}
		if msg.From != from {
			from, next, last = msg.From, 0, 0
		}
		var s *Session
		if sid < last {
			s = m.open[sid]
		} else {
			last = sid
			for next < len(m.order) && m.order[next].sid < sid {
				next++
			}
			if next < len(m.order) && m.order[next].sid == sid {
				s = m.order[next]
			}
		}
		if s == nil || int(msg.From) >= s.n {
			continue // not a local session, or sender not a participant
		}
		delivered := transport.Message{From: msg.From, Payload: payload}
		if len(s.inbox) >= inboxPerParticipant*s.n {
			if counts == nil {
				counts = make(map[uint64][]int)
			}
			if counts[sid] == nil {
				counts[sid] = senderCounts(s.inbox, s.n)
			}
			s.inbox = shedInto(s.inbox, counts[sid], delivered)
			m.stats.SessionShed++
			continue
		}
		s.inbox = append(s.inbox, delivered)
		if c := counts[sid]; c != nil {
			c[msg.From]++
		}
	}
}

// merge ships the tick's packets as one base round without copying a
// payload byte here: each merged packet is a two-piece vector — the
// session's id varint, carved once per session from one shared header
// buffer, and the payload by reference. A VecNet base takes them as they
// are; any other base gets them flattened through m.flat. A full-width
// session's broadcast is one entry addressed to transport.All, which the
// TCP base encodes once for all peers; every other packet addressed inside
// its session is one entry. The pieces are free on return, so all three
// scratch slices are reused across ticks and grow by append: a grown
// slice leaves its old array, which the pieces carved so far point into,
// as it is.
// Caller holds m.mu.
func (m *Mux) merge() ([]transport.Message, error) {
	buf, vecs, merged := m.hdrBuf[:0], m.vecBuf[:0], m.pktsBuf[:0]
	var packets, payloadBytes uint64
	for _, s := range m.order {
		mark := len(buf)
		buf = binary.AppendUvarint(buf, s.sid)
		hdr := buf[mark:len(buf):len(buf)]
		pending := s.pending
		if s.all {
			pending = pending[:1] // a broadcast is its first packet, to everyone
		}
		for i := range pending {
			p := &pending[i]
			to, copies := p.To, 1
			switch {
			case s.all:
				to, copies = transport.All, s.n
			case to < 0 || to >= s.n:
				continue
			}
			vmark := len(vecs)
			vecs = append(vecs, hdr)
			if len(p.Payload) > 0 {
				vecs = append(vecs, p.Payload)
			}
			merged = append(merged, transport.VecPacket{To: to, Tag: p.Tag, Vec: vecs[vmark:len(vecs):len(vecs)]})
			packets += uint64(copies)
			payloadBytes += uint64(copies * len(p.Payload))
		}
	}
	m.stats.Packets += packets
	var in []transport.Message
	var err error
	if m.vec != nil {
		m.stats.BytesReferenced += payloadBytes
		in, err = m.vec.ExchangeVec(merged)
	} else {
		m.stats.BytesCopied += payloadBytes
		in, err = m.base.Exchange(m.flat.Flatten(merged, m.n))
	}
	// The base is done with the pieces; drop the references so the scratch
	// slices don't pin session buffers until the next tick.
	clear(vecs)
	for i := range merged {
		merged[i].Vec = nil
	}
	m.hdrBuf, m.vecBuf, m.pktsBuf = buf, vecs, merged
	return in, err
}

// unframe splits a session frame; ok=false on malformed input. Everything
// after the session-id varint is the payload.
func unframe(raw []byte) (uint64, []byte, bool) {
	sid, n := binary.Uvarint(raw)
	if n <= 0 {
		return 0, nil, false
	}
	return sid, raw[n:], true
}

// senderCounts tallies messages per sender in box, so the shed policy can
// identify the heaviest sender. Built lazily: honest rounds never hit the
// bound and never pay for it.
func senderCounts(box []transport.Message, n int) []int {
	counts := make([]int, n)
	for _, msg := range box {
		if int(msg.From) < n {
			counts[msg.From]++
		}
	}
	return counts
}

// shedInto applies shed-oldest-from-faulty to a full inbox: the heaviest
// sender (ties to the lowest id — deterministic for replay) is presumed
// the flooder. If the incoming sender is at least as heavy the incoming
// message is dropped; otherwise the heaviest sender's oldest message is
// evicted. Exactly one message is shed either way.
func shedInto(box []transport.Message, counts []int, msg transport.Message) []transport.Message {
	heavy := 0
	for s := 1; s < len(counts); s++ {
		if counts[s] > counts[heavy] {
			heavy = s
		}
	}
	from := int(msg.From)
	if from >= len(counts) || counts[from] >= counts[heavy] {
		return box
	}
	for i, held := range box {
		if int(held.From) == heavy {
			box = append(box[:i], box[i+1:]...)
			break
		}
	}
	counts[heavy]--
	counts[from]++
	return append(box, msg)
}
