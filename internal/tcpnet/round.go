package tcpnet

import (
	"convexagreement/internal/transport"
	"convexagreement/internal/wire"
)

// linkState is one peer's standing in the round quorum.
type linkState uint8

const (
	linkDown   linkState = iota // not (or no longer) connected; reconnect may restore it
	linkUp                      // connected, counted toward round quorum
	linkSilent                  // demoted for the run (violation, exhausted retries or a rejoin gap)
)

// inboxEntry is one peer's delivery for one round: the pooled frame and the
// payload headers that alias it; a nil frame means none yet. An emptied
// slot keeps its header slice for the read loop that fills it next, so
// header slices circulate between read loops and slots, never reallocated.
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

// roundState is the receive side of the round clock: the round number, each
// open round's inbox slots, every peer's link state and the demotions. It
// knows no clock, socket, lock or goroutine and releases no frame: the Conn
// feeds it events under c.mu (a frame, link up, link down, demote, close)
// and carries out the effects they return.
//
// A round is complete when have, the up peers whose frame for it is in,
// equals up, the peers whose link is up. A frame delivered before its
// peer's link went down is still delivered but leaves have, so it never
// stands in for a live peer's; it counts again if the link comes back.
type roundState struct {
	self    int
	horizon uint64 // how many rounds past the current one a frame may be buffered for
	round   uint64
	// byRound holds each open round's deliveries indexed by party id, so a
	// round is read out in sender order with no sort.
	byRound map[uint64][]inboxEntry
	// free holds retired entry slices to open rounds with; at most
	// horizon+1 rounds are ever open at once, so that is all it keeps.
	free     [][]inboxEntry
	state    []linkState // indexed by party id; own id stays linkDown
	up, have int
	// demotions records every peer demoted to silent with its structured
	// reason, in demotion order (Stats returns them sorted by peer).
	demotions []Demotion

	release []*wire.Frame       // the frames the last event handed back
	inbox   []transport.Message // the inbox the last close built
}

// effect is what an event asks of the Conn that fed it.
type effect struct {
	wake    bool          // the round is complete: wake the Exchange waiting on it
	release []*wire.Frame // frames nothing holds any more; valid until the next event
	dropped bool          // the frame was beyond the round horizon
}

func newRoundState(n, self int, round uint64, horizon int) roundState {
	return roundState{
		self:    self,
		horizon: uint64(horizon),
		round:   round,
		byRound: make(map[uint64][]inboxEntry),
		state:   make([]linkState, n),
	}
}

// complete reports whether every up peer has delivered the current round.
func (s *roundState) complete() bool { return s.have == s.up }

// delivered reports whether peer's frame for the current round is in.
func (s *roundState) delivered(peer int) bool {
	entries := s.byRound[s.round]
	return entries != nil && entries[peer].frame != nil
}

// entries returns round r's entry slice, opening the round — with a retired
// slice when one is free — if no frame for it has arrived yet.
func (s *roundState) entries(r uint64) []inboxEntry {
	entries := s.byRound[r]
	if entries == nil {
		if k := len(s.free); k > 0 {
			entries, s.free = s.free[k-1], s.free[:k-1]
		} else {
			entries = make([]inboxEntry, len(s.state))
		}
		s.byRound[r] = entries
	}
	return entries
}

// frame hands in peer's frame for round r with the payload headers that
// alias it. The inbox takes the first frame per (round, peer) within the
// horizon from a peer whose link is up; any other frame (stale, a
// duplicate, beyond the horizon, from a peer not up) goes back. It returns
// the header slice the read loop decodes its next frame into.
func (s *roundState) frame(peer int, r uint64, payloads [][]byte, f *wire.Frame) (effect, [][]byte) {
	if s.state[peer] == linkUp && r >= s.round && r-s.round <= s.horizon {
		if e := &s.entries(r)[peer]; e.frame == nil {
			scratch := e.payloads
			*e = inboxEntry{payloads: payloads, frame: f}
			if r != s.round {
				return effect{}, scratch
			}
			s.have++
			return effect{wake: s.complete()}, scratch
		}
	}
	s.release = append(s.release[:0], f)
	return effect{release: s.release, dropped: r > s.round && r-s.round > s.horizon}, payloads[:0]
}

// linkUp records that peer's link is up, counting the frame it delivered
// for the current round over its previous link; a silent or up peer stays
// as it is. It cannot complete an incomplete round, so nothing wakes.
func (s *roundState) linkUp(peer int) {
	if s.state[peer] != linkDown {
		return
	}
	s.state[peer] = linkUp
	s.up++
	if s.delivered(peer) {
		s.have++
	}
}

// linkDown records that peer's link went down: the round stops waiting for
// it, and its frame, if in, stops counting.
func (s *roundState) linkDown(peer int) effect {
	if s.state[peer] != linkUp {
		return effect{}
	}
	s.state[peer] = linkDown
	return s.leave(peer)
}

// leave takes an up peer out of both counters.
func (s *roundState) leave(peer int) effect {
	s.up--
	if s.delivered(peer) {
		s.have--
	}
	return effect{wake: s.complete()}
}

// demote marks peer silent for the run, records why, and hands back every
// frame it has buffered: a flooder pre-delivers frames for many rounds
// before it trips the rate limiter, and buffered they would be delivered
// after it was judged hostile. A peer is demoted at most once.
func (s *roundState) demote(peer int, reason wire.Reason) effect {
	var eff effect
	switch s.state[peer] {
	case linkSilent:
		return eff
	case linkUp:
		eff = s.leave(peer)
	}
	s.state[peer] = linkSilent
	s.demotions = append(s.demotions, Demotion{Peer: peer, Reason: reason, Round: s.round})
	s.release = s.release[:0]
	for _, entries := range s.byRound {
		if e := &entries[peer]; e.frame != nil {
			s.release = append(s.release, e.frame)
			e.empty()
		}
	}
	eff.release = s.release
	return eff
}

// close closes the current round and advances to the next. It returns the
// delivered messages in sender order (each sender's in the order it sent
// them, self at this party's own index) and appends the frames behind them
// to spent; both stay live until the caller's next Exchange, which releases
// the frames. The next round's early frames from up peers seed have.
func (s *roundState) close(self []transport.Message, spent []*wire.Frame) ([]transport.Message, []*wire.Frame) {
	entries := s.entries(s.round)
	msgs := s.inbox[:0]
	for peer := range entries {
		if peer == s.self {
			msgs = append(msgs, self...)
			continue
		}
		e := &entries[peer]
		if e.frame == nil {
			continue
		}
		for _, p := range e.payloads {
			msgs = append(msgs, transport.Message{From: peer, Payload: p})
		}
		spent = append(spent, e.frame)
		e.empty()
	}
	s.inbox = msgs
	delete(s.byRound, s.round)
	if uint64(len(s.free)) <= s.horizon {
		s.free = append(s.free, entries)
	}
	s.round++
	s.have = 0
	for peer, e := range s.byRound[s.round] {
		if e.frame != nil && s.state[peer] == linkUp {
			s.have++
		}
	}
	return msgs, spent
}
