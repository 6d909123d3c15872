package tcpnet

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"convexagreement/internal/transport"
	"convexagreement/internal/wire"
)

// The round-state explorer: a bounded-depth DFS at n = 4 over every
// sequence of round-state events — frames for the previous round, the
// current one, the next and beyond the horizon (duplicates included), link
// down, link up, demote, and the round's close at the deadline or once
// complete — each sequence replayed from scratch on real wire.Arena
// frames. At every step it checks the state against a plain model of the
// rules:
//
//  1. complete() says "every up peer's frame is in" exactly: a round closes
//     only with every up peer's frame or at the deadline, and the event
//     that completes a round wakes the waiter, so no Δ is wasted;
//  2. no frame from a down or demoted peer counts toward the quorum, and no
//     frame a demoted peer sent before its demotion is ever delivered;
//  3. every frame handed in is released exactly once, counting the
//     events' effects, the spent frames of each close and a final drain;
//  4. both counters equal a recount from scratch.
const (
	exN       = 4
	exSelf    = 1
	exHorizon = 1
	exStart   = 5 // the round the explored party starts at
)

// exPeers are the explored party's peers; they are interchangeable, so a
// sequence names them in first-use order only.
var exPeers = [...]int{0, 2, 3}

type exKind uint8

const (
	exFrame exKind = iota
	exDown
	exUp
	exDemote
	exCloseDeadline // the round has closed at Δ, incomplete
	exCloseComplete // the round has closed with every up peer's frame
)

// exEvent is one event; off is a frame's round relative to the current one.
type exEvent struct {
	kind exKind
	peer int // index into exPeers
	off  int
}

func (e exEvent) String() string {
	p := exPeers[e.peer]
	switch e.kind {
	case exFrame:
		return fmt.Sprintf("frame(%d,%+d)", p, e.off)
	case exDown:
		return fmt.Sprintf("down(%d)", p)
	case exUp:
		return fmt.Sprintf("up(%d)", p)
	case exDemote:
		return fmt.Sprintf("demote(%d)", p)
	case exCloseDeadline:
		return "close@Δ"
	}
	return "close"
}

// exAlphabet is every event; the closes are told apart by whether the model
// round is complete, so exactly one of them is enabled at a time.
var exAlphabet = func() []exEvent {
	var evs []exEvent
	for i := range exPeers {
		for _, off := range []int{-1, 0, 1, exHorizon + 1} {
			evs = append(evs, exEvent{kind: exFrame, peer: i, off: off})
		}
		evs = append(evs, exEvent{kind: exDown, peer: i}, exEvent{kind: exUp, peer: i}, exEvent{kind: exDemote, peer: i})
	}
	return append(evs, exEvent{kind: exCloseDeadline}, exEvent{kind: exCloseComplete})
}()

// exSent is one frame handed in along a path.
type exSent struct {
	f         *wire.Frame
	peer      int
	round     uint64
	payload   []byte
	condemned bool // its sender was demoted after sending it
	released  bool
}

// exWorld is one path's round state, the model it is checked against, and
// the ledger of every frame handed in.
type exWorld struct {
	t     *testing.T
	path  []exEvent
	arena *wire.Arena
	enc   [][][]byte
	rd    bytes.Reader

	s       roundState
	scratch [][]byte      // the header slice the next read decodes into
	spent   []*wire.Frame // the last close's frames, released at the next

	// The model: link states and, per peer and round, the index into sent
	// of the frame the inbox should hold.
	up, silent [exN]bool
	cur        uint64
	hold       [exN]map[uint64]int
	sent       []exSent
}

func newExWorld(t *testing.T, arena *wire.Arena, path []exEvent) *exWorld {
	w := &exWorld{t: t, path: path, arena: arena, enc: [][][]byte{{nil}}, cur: exStart}
	w.s = newRoundState(exN, exSelf, exStart, exHorizon)
	for i := range w.hold {
		w.hold[i] = map[uint64]int{}
	}
	for _, p := range exPeers {
		w.s.linkUp(p)
		w.up[p] = true
	}
	w.check()
	return w
}

func (w *exWorld) fail(format string, args ...any) {
	w.t.Helper()
	w.t.Fatalf("after %s: %s", exPath(w.path), fmt.Sprintf(format, args...))
}

func exPath(path []exEvent) string {
	names := make([]string, len(path))
	for i, e := range path {
		names[i] = e.String()
	}
	return "[" + strings.Join(names, " ") + "]"
}

// modelComplete reports whether every up peer's frame for the current
// round is in, by the model.
func (w *exWorld) modelComplete() bool {
	for _, p := range exPeers {
		if _, in := w.hold[p][w.cur]; w.up[p] && !in {
			return false
		}
	}
	return true
}

// release checks a frame handed back against the ledger and releases it:
// it must have been handed in and not released since.
func (w *exWorld) release(f *wire.Frame) {
	w.t.Helper()
	for i := len(w.sent) - 1; i >= 0; i-- {
		if e := &w.sent[i]; e.f == f && !e.released {
			e.released = true
			f.Release()
			return
		}
	}
	w.fail("a frame handed back twice, or never handed in")
}

// newFrame encodes a real frame for peer and round r and reads it back the
// way a read loop does, into the header slice the last frame event gave.
func (w *exWorld) newFrame(peer int, r uint64) ([][]byte, *wire.Frame, []byte) {
	payload := []byte{byte(peer), byte(r), byte(len(w.sent))}
	w.enc[0][0] = payload
	enc := w.arena.EncodeFrameVecs(r, w.enc)
	w.rd.Reset(enc.Bytes())
	round, payloads, f, err := w.arena.ReadFrameIntoGated(&w.rd, maxFrame, w.scratch, nil)
	enc.Release()
	if err != nil || round != r {
		w.fail("frame round trip: round %d, %v", round, err)
	}
	return payloads, f, payload
}

// step applies one event to the round state and the model, and checks the
// effect it returned.
func (w *exWorld) step(e exEvent) {
	before := w.modelComplete()
	var eff effect
	switch p := exPeers[e.peer]; e.kind {
	case exFrame:
		r := uint64(int(w.cur) + e.off)
		payloads, f, payload := w.newFrame(p, r)
		idx := len(w.sent)
		w.sent = append(w.sent, exSent{f: f, peer: p, round: r, payload: payload})
		eff, w.scratch = w.s.frame(p, r, payloads, f)
		_, dup := w.hold[p][r]
		if take := w.up[p] && e.off >= 0 && e.off <= exHorizon && !dup; take {
			w.hold[p][r] = idx
			if len(eff.release) != 0 {
				w.fail("the inbox handed back a frame it should take")
			}
		} else if len(eff.release) != 1 || eff.release[0] != f {
			w.fail("the inbox kept a frame it should hand back (%d handed back)", len(eff.release))
		}
		if eff.dropped != (e.off > exHorizon) {
			w.fail("dropped = %v for a frame %d rounds ahead", eff.dropped, e.off)
		}
	case exDown:
		w.up[p] = false
		eff = w.s.linkDown(p)
	case exUp:
		w.up[p] = !w.silent[p]
		w.s.linkUp(p)
	case exDemote:
		want := map[*wire.Frame]bool{}
		if !w.silent[p] {
			for r, idx := range w.hold[p] {
				want[w.sent[idx].f] = true
				delete(w.hold[p], r)
			}
			for i := range w.sent {
				if w.sent[i].peer == p {
					w.sent[i].condemned = true
				}
			}
		}
		w.up[p], w.silent[p] = false, true
		eff = w.s.demote(p, wire.ReasonProtocol)
		got := map[*wire.Frame]bool{}
		for _, f := range eff.release {
			got[f] = true
		}
		if len(got) != len(eff.release) || len(got) != len(want) {
			w.fail("demote handed back %d frames, want the %d it buffered", len(eff.release), len(want))
		}
		for f := range want {
			if !got[f] {
				w.fail("demote kept a frame the peer buffered")
			}
		}
	case exCloseDeadline, exCloseComplete:
		w.close()
	}
	if eff.wake && !w.modelComplete() {
		w.fail("woke the waiter on an incomplete round")
	}
	if !before && w.modelComplete() && !eff.wake && e.kind != exCloseDeadline && e.kind != exCloseComplete {
		w.fail("the event completed the round but did not wake the waiter: Δ wasted")
	}
	for _, f := range eff.release {
		w.release(f)
	}
	w.check()
}

// close releases the previous close's frames, as the next Exchange does,
// closes the round and checks the inbox against the model.
func (w *exWorld) close() {
	for _, f := range w.spent {
		w.release(f)
	}
	selfMsg := []transport.Message{{From: exSelf, Payload: []byte("self")}}
	msgs, spent := w.s.close(selfMsg, w.spent[:0])
	w.spent = spent
	var want []transport.Message
	var frames []*wire.Frame
	for p := range exN {
		if p == exSelf {
			want = append(want, selfMsg...)
			continue
		}
		idx, in := w.hold[p][w.cur]
		if !in {
			continue
		}
		want = append(want, transport.Message{From: p, Payload: w.sent[idx].payload})
		frames = append(frames, w.sent[idx].f)
		delete(w.hold[p], w.cur)
	}
	if len(msgs) != len(want) {
		w.fail("inbox of %d messages, want %d", len(msgs), len(want))
	}
	for i := range want {
		if msgs[i].From != want[i].From || !bytes.Equal(msgs[i].Payload, want[i].Payload) {
			w.fail("inbox message %d is %d:%x, want %d:%x", i, msgs[i].From, msgs[i].Payload, want[i].From, want[i].Payload)
		}
	}
	for _, m := range msgs {
		if m.From == exSelf {
			continue
		}
		// A peer's payload is (peer, round, index into sent).
		if e := &w.sent[m.Payload[2]]; e.peer != m.From || e.round != w.cur {
			w.fail("peer %d's message carries peer %d's frame for round %d", m.From, e.peer, e.round)
		} else if e.condemned {
			w.fail("delivered a frame peer %d sent before its demotion", m.From)
		}
	}
	if len(spent) != len(frames) {
		w.fail("close spent %d frames, want the %d it delivered", len(spent), len(frames))
	}
	for i := range frames {
		if spent[i] != frames[i] {
			w.fail("spent frame %d is not the one delivered", i)
		}
	}
	w.cur++
}

// check holds the round state to the model and to a recount of itself.
func (w *exWorld) check() {
	s := &w.s
	if s.round != w.cur {
		w.fail("round %d, want %d", s.round, w.cur)
	}
	up, have := 0, 0
	cur := s.byRound[s.round]
	for p, st := range s.state {
		want := linkDown
		switch {
		case w.silent[p]:
			want = linkSilent
		case w.up[p]:
			want = linkUp
		}
		if st != want {
			w.fail("peer %d's link is %d, want %d", p, st, want)
		}
		if st == linkUp {
			up++
			if cur != nil && cur[p].frame != nil {
				have++
			}
		}
		for r, entries := range s.byRound {
			idx, in := w.hold[p][r]
			if f := entries[p].frame; (f != nil) != in || in && f != w.sent[idx].f {
				w.fail("peer %d's slot for round %d holds the wrong frame", p, r)
			}
		}
	}
	if s.up != up || s.have != have {
		w.fail("counters up=%d have=%d, recount %d and %d", s.up, s.have, up, have)
	}
	if s.complete() != w.modelComplete() {
		w.fail("complete() = %v, but every up peer's frame in = %v", s.complete(), w.modelComplete())
	}
}

// drain releases everything the state still holds and checks the ledger:
// every frame handed in released exactly once.
func (w *exWorld) drain() {
	for _, f := range w.spent {
		w.release(f)
	}
	w.spent = nil
	for _, entries := range w.s.byRound {
		for p := range entries {
			if f := entries[p].frame; f != nil {
				w.release(f)
			}
		}
	}
	for _, e := range w.sent {
		if !e.released {
			w.fail("a frame of peer %d for round %d was never released", e.peer, e.round)
		}
	}
}

// enabled lists the events that may follow: the closes by whether the
// round is complete, and peers in first-use order.
func (w *exWorld) enabled(dst []exEvent) []exEvent {
	touched := 0
	for _, e := range w.path {
		if e.kind != exCloseDeadline && e.kind != exCloseComplete {
			touched = max(touched, e.peer+1)
		}
	}
	complete := w.modelComplete()
	for _, e := range exAlphabet {
		switch e.kind {
		case exCloseDeadline:
			if complete {
				continue
			}
		case exCloseComplete:
			if !complete {
				continue
			}
		default:
			if e.peer > touched {
				continue
			}
		}
		dst = append(dst, e)
	}
	return dst
}

// exploreRounds replays every enabled sequence of up to depth events from a
// fresh state, and returns how many it replayed.
func exploreRounds(t *testing.T, depth int) int {
	var arena wire.Arena
	path := make([]exEvent, 0, depth)
	seqs := 0
	var visit func()
	visit = func() {
		seqs++
		w := newExWorld(t, &arena, path)
		for i, e := range path {
			w.path = path[:i+1]
			w.step(e)
		}
		next := w.enabled(nil)
		w.drain()
		if len(path) == depth {
			return
		}
		for _, e := range next {
			path = append(path, e)
			visit()
			path = path[:len(path)-1]
		}
	}
	visit()
	return seqs
}

// TestRoundStateExplorer runs the explorer: depth 5 (about 800 000
// sequences), depth 4 under -short.
func TestRoundStateExplorer(t *testing.T) {
	depth := 5
	if testing.Short() {
		depth = 4
	}
	seqs := exploreRounds(t, depth)
	t.Logf("%d event sequences of up to %d events at n = %d", seqs, depth, exN)
}
