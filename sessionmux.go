package convexagreement

import (
	"math/big"

	"convexagreement/internal/sessmux"
	"convexagreement/internal/transport"
)

// SessionMux multiplexes many independent agreement sessions — each with
// its own participant count, corruption budget, inputs, and lifecycle —
// over ONE Transport, so a deployment holds a single mesh open instead of
// one per agreement (see internal/sessmux for the tick model and
// DESIGN.md §2.13 for the architecture).
//
// Over a TCP transport session payloads flow by reference through the
// mux's merge and are copied once, into each peer's pooled round frame;
// all sessions sharing a tick coalesce into one write per peer. Every
// participant of a session must open it at the same tick with
// the same (n, t); a party with no live sessions keeps the shared tick
// clock with Idle.
type SessionMux struct {
	m *sessmux.Mux
}

// NewSessionMux wraps tr. The transport must not be driven by anyone else
// from this point on: the mux owns its round clock.
func NewSessionMux(tr Transport) *SessionMux {
	if tcp, ok := tr.(*TCPTransport); ok {
		tr = tcp.conn // the mesh itself takes scatter-gather packets
	}
	return &SessionMux{m: sessmux.New(tr)}
}

// Open starts session sid with n participants (parties 0..n-1 of the
// underlying transport) and corruption budget t (3t < n). Session ids are
// single-use and meant to be issued in ascending order: the mux remembers
// used ids as a low-watermark plus the last ~1000 above it, so an id far
// below the ones in use is refused whether or not it ever ran. The
// returned transport is live immediately; drive it from one goroutine and
// Close it when the protocol finishes.
func (sm *SessionMux) Open(sid uint64, n, t int) (*MuxedTransport, error) {
	s, err := sm.m.Open(sid, n, t)
	if err != nil {
		return nil, err
	}
	return &MuxedTransport{s: s}, nil
}

// Idle keeps the tick clock for a party with no live sessions: it drives
// (or waits out) exactly one tick, exchanging nothing.
func (sm *SessionMux) Idle() error { return sm.m.Idle() }

// Live reports the number of locally live sessions.
func (sm *SessionMux) Live() int { return sm.m.Live() }

// Stats returns cumulative mux counters.
func (sm *SessionMux) Stats() SessionMuxStats { return sm.m.Stats() }

// SessionMuxStats are cumulative counters for one SessionMux — the mux's
// own record, handed out without conversion:
//
//	Ticks           uint64 // physical rounds driven
//	Packets         uint64 // session frames shipped, all sessions coalesced
//	BytesReferenced uint64 // payload bytes handed to the transport by reference
//	BytesCopied     uint64 // payload bytes flattened for a transport that takes only flat packets (0 on a TCP base)
//	SessionShed     uint64 // messages shed by the per-session bound
//	TickShed        uint64 // always 0: there is no whole-tick bound
//
// Packets/Ticks is the coalescing ratio — how many session frames ride in
// each physical round (one write per peer on TCP). SessionShed counts
// backpressure drops: a session keeps at most 64·n messages per tick, where
// an honest round is n, shedding the heaviest sender's oldest message.
type SessionMuxStats = sessmux.Stats

// MuxedTransport is one live session's Transport. Close retires the
// session locally; peers observe omission, and sibling sessions are
// unaffected.
type MuxedTransport struct {
	s *sessmux.Session
}

var _ transport.BroadcastNet = (*MuxedTransport)(nil)

// Sid returns the session id.
func (mt *MuxedTransport) Sid() uint64 { return mt.s.Sid() }

// ID implements Transport.
func (mt *MuxedTransport) ID() int { return mt.s.ID() }

// N implements Transport.
func (mt *MuxedTransport) N() int { return mt.s.N() }

// T implements Transport.
func (mt *MuxedTransport) T() int { return mt.s.T() }

// Exchange implements Transport: one virtual round of this session,
// carried by the mux's next tick.
func (mt *MuxedTransport) Exchange(out []Packet) ([]Message, error) { return mt.s.Exchange(out) }

// ExchangeBroadcast completes an all-to-all virtual round without the
// caller building the n-packet fan-out.
func (mt *MuxedTransport) ExchangeBroadcast(tag string, payload []byte) ([]Message, error) {
	return mt.s.ExchangeBroadcast(tag, payload)
}

// Close retires the session locally.
func (mt *MuxedTransport) Close() error {
	mt.s.Close()
	return nil
}

// RunSession opens session sid, runs the selected protocol over it with
// the other participants, closes the session, and returns the agreed
// value — RunParty scoped to one multiplexed session.
func (sm *SessionMux) RunSession(sid uint64, n, t int, protocol Protocol, width int, input *big.Int) (*big.Int, error) {
	mt, err := sm.Open(sid, n, t)
	if err != nil {
		return nil, err
	}
	defer mt.Close()
	return RunParty(mt, protocol, width, input)
}
