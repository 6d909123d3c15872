package ba

import (
	"slices"

	"convexagreement/internal/transport"
	"convexagreement/internal/wire"
)

// Work is the working set of the quorum vocabulary: the containers that
// Bits and TurpinCoan — and Π_BA+ above them (baplus.plus) — fill round
// after round, owned by the caller and reused by every instance it runs,
// one at a time. An agreement's phase-kings and Π_BA+ stages share one set,
// and a session keeps it across agreements: it is reached through the
// buffers a party's run passes down (core.Buffers → baplus.Buffers →
// Work). It holds
//
//   - Bits' five lane vectors and its vote counts;
//   - one Tally per lane, each grown to the most values its lane has
//     counted, and LaneTallies' entry scratch;
//   - TurpinCoan's option frames, its candidate copies and grades;
//   - two send buffers, taken in turn by every payload the set frames,
//     and the fan-out slice every broadcast round of the set's instances
//     is refilled into (transport.ExchangeAll).
//
// Its containers grow to the largest instance seen and are then refilled
// in place. What Bits and TurpinCoan return are views of the set, valid
// until its next use. The zero value is ready; a nil *Work is a fresh set
// for one call.
//
// The send buffers: in-process transports deliver a payload by reference,
// and a receiver may read it until it enters the next round, so a payload
// sent in round r may be rewritten only once round r+1 has closed. Each
// payload takes the buffer the one before it did not, so a buffer is
// rewritten at the send after next, a round later at the least. The turn
// carries over from call to call and agreement to agreement, so an
// instance's first payload never lands in the buffer its predecessor's
// last one was sent from.
type Work struct {
	bits    []byte
	votes   transport.LaneVotes
	tallies []transport.Tally
	entries [][]byte
	frames  [][]byte
	opts    []byte
	cands   [][]byte
	candBuf []byte
	g       []byte
	send    [2][]byte
	sent    int
	fan     []transport.Packet
}

// Tally counts one round of k-lane frames into the set's tallies —
// transport.LaneTallies with add — and returns them. A lane's tally grows
// to the most distinct values its lane has counted, and keeps that room.
// (Room for n values in every lane up front, or from a lane's second value
// on, measured more: EXPERIMENTS.md "One work set per party run".)
func (w *Work) Tally(in []transport.Message, k int, add func(t *transport.Tally, entry []byte)) []transport.Tally {
	if len(w.tallies) < k {
		w.tallies = slices.Grow(w.tallies, k-len(w.tallies))[:k]
	}
	tallies := w.tallies[:k]
	transport.LaneTallies(in, tallies, resize(&w.entries, k), add)
	return tallies
}

// Lanes frames a round of lane frames, as wire.Lanes does, into the next
// send buffer.
func (w *Work) Lanes(frames [][]byte) []byte {
	s := w.next()
	*s = wire.AppendLanes((*s)[:0], frames)
	return *s
}

// pack frames bit lanes, as transport.PackLanes does, into the next send
// buffer.
func (w *Work) pack(lanes []byte) []byte {
	out := resize(w.next(), transport.LaneBytes(len(lanes)))
	transport.PackLanes(out, lanes)
	return out
}

// Fan is the set's broadcast fan-out for transport.ExchangeAll, for the
// rounds its caller runs on the set itself (Π_BA+'s, Π_ℓBA+'s dispersal,
// GETOUTPUT's). A nil set's is nil: a fresh slice for one round.
func (w *Work) Fan() *[]transport.Packet {
	if w == nil {
		return nil
	}
	return &w.fan
}

// next is the send buffer whose turn it is.
func (w *Work) next() *[]byte {
	s := &w.send[w.sent%len(w.send)]
	w.sent++
	return s
}

// Reset ends an agreement's use of w: every container is cleared, so no
// value of a finished round's inbox — a tally's, an entry's — stays pinned
// by the set, and the fan-out drops the last broadcast's tag and payload.
// The buffers stay, and so does the send buffers' turn.
func (w *Work) Reset() {
	clear(w.fan)
	for l, t := range w.tallies {
		clear(t[:cap(t)])
		w.tallies[l] = t[:0]
	}
	for _, c := range [][][]byte{w.entries, w.frames, w.cands} {
		clear(c[:cap(c)])
	}
}

// Scribble overwrites with 0xDB what the next agreement may rewrite: the
// lane vectors, frames, candidates and grades, and the send buffer whose
// turn is next — not the other one, which holds the last payload sent,
// still the receivers' to read. Tests call it between agreements, after
// Reset, so that anything kept past its agreement reads as garbage.
func (w *Work) Scribble() {
	for _, p := range [][]byte{w.bits, w.opts, w.candBuf, w.g, w.send[w.sent%len(w.send)]} {
		p = p[:cap(p)]
		for i := range p {
			p[i] = 0xDB
		}
	}
}

// fresh is the set of a call given none. It is made out of line, on the
// heap: made in the caller's frame, the set would grow that frame — and
// with it the stack of every goroutine the protocol runs on — by its size
// even for callers that pass their own.
//
//go:noinline
func fresh() *Work { return new(Work) }

// room returns *p emptied, with room for size bytes.
func room(p *[]byte, size int) []byte {
	if cap(*p) < size {
		*p = make([]byte, 0, size)
	}
	return (*p)[:0]
}

// resize returns *p at length k, reallocated only when it lacks the room.
func resize[S ~[]T, T any](p *S, k int) S {
	if cap(*p) < k {
		*p = make(S, k)
	}
	*p = (*p)[:k]
	return *p
}
