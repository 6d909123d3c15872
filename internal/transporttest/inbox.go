package transporttest

import (
	"bytes"
	"encoding/binary"
	"slices"

	"convexagreement/internal/transport"
	"convexagreement/internal/wire"
)

// Inbox shapes fuzz bytes into one round's inbox as a byzantine network
// could deliver it: raw is read two bytes at a time, the first naming the
// sender (eight parties; repeats and broken order are the point) and the
// second the payload — an entry of pool (the caller's well- and ill-formed
// frames for the round under test), the empty payload, an oversized one, or
// a few of the bytes that follow as garbage.
func Inbox(raw []byte, pool [][]byte) []transport.Message {
	var in []transport.Message
	for ; len(raw) >= 2; raw = raw[2:] {
		sel := int(raw[1])
		payload := raw[2:min(len(raw), 2+sel%5)]
		switch {
		case sel < len(pool):
			payload = pool[sel]
		case sel == 0xFF:
			payload = bytes.Repeat([]byte{0xAB}, 4096)
		}
		in = append(in, transport.Message{From: int(raw[0] % 8), Payload: payload})
	}
	return in
}

// FirstPerSender lists an inbox's first message per sender — the messages
// transport.Firsts walks in place, in the same order — for the quorum
// oracles to compare against. An inbox whose senders strictly ascend, as
// every Net delivers an honest round, comes back as it is. Any other — a
// sender repeating itself (byzantine spam), or senders out of order — is
// filtered into *scratch, the caller's, in order of first appearance; a nil
// scratch takes a new slice. The result is read-only and lives as long as
// msgs and *scratch do.
func FirstPerSender(msgs []transport.Message, scratch *[]transport.Message) []transport.Message {
	ascending := true
	for i := 1; i < len(msgs) && ascending; i++ {
		ascending = msgs[i].From > msgs[i-1].From
	}
	if ascending {
		return msgs
	}
	var out []transport.Message
	if scratch != nil {
		out = (*scratch)[:0]
	}
	if cap(out) < len(msgs) {
		out = make([]transport.Message, 0, len(msgs)) // not slices.Grow, which allocates twice under -race
	}
	for f := transport.FirstsOf(msgs); f.Next(); {
		out = append(out, f.Message())
	}
	if scratch != nil {
		*scratch = out
	}
	return out
}

// Cloned is in with every payload in a slice of its own, as a TCP mesh
// delivers a round: Inbox hands out the pool's shared slices, so a reader
// that told equal payloads apart by slice identity would pass on it alone.
func Cloned(in []transport.Message) []transport.Message {
	out := make([]transport.Message, len(in))
	for i, m := range in {
		out[i] = transport.Message{From: m.From, Payload: bytes.Clone(m.Payload)}
	}
	return out
}

// Forms is in as a quorum oracle reads it: as it is, Cloned, and sorted by
// sender, plain and Cloned. The sort is stable, so each sender's repeats
// follow its first message in the order they came, as every Net delivers a
// spamming sender; Inbox's senders mostly come out of order, so in itself
// is mostly the unsorted inbox no Net in this module delivers.
func Forms(in []transport.Message) [][]transport.Message {
	sorted := slices.Clone(in)
	slices.SortStableFunc(sorted, func(a, b transport.Message) int { return a.From - b.From })
	return [][]transport.Message{in, Cloned(in), sorted, Cloned(sorted)}
}

// Reversed is a transport.Net that delivers every inbox of the Net it wraps
// back to front: senders descending, a spamming sender's last message
// first. See Reverse.
type Reversed struct {
	transport.Net // ID, N and T are the inner transport's own
	in            []transport.Message
}

// Reverse wraps net so that every round's inbox arrives out of sender
// order, which no Net in this module delivers but the Net contract allows:
// a reader that takes sortedness for granted counts a sender twice or
// drops one. The reversed inbox is a slice of its own, refilled every
// round; the payloads are the inner transport's.
func Reverse(net transport.Net) *Reversed { return &Reversed{Net: net} }

// Exchange runs the round on the inner transport and hands out its inbox
// reversed.
func (r *Reversed) Exchange(out []transport.Packet) ([]transport.Message, error) {
	in, err := r.Net.Exchange(out)
	if err != nil {
		return nil, err
	}
	r.in = append(r.in[:0], in...)
	slices.Reverse(r.in)
	return r.in, nil
}

// LanePool turns a pool of one-lane entries into a pool of k-lane frames
// (wire.Lanes) for Inbox: every entry in every lane position with its
// neighbours drawn round-robin from the pool, lanes that repeat the lane
// before (the one-byte marker), and frames no k-lane reader may accept — a
// marker in lane 0, one lane too few or too many, a trailing byte.
func LanePool(entries [][]byte, k int) [][]byte {
	var pool [][]byte
	lanes := make([][]byte, k+1)
	for i := range entries {
		for l := range lanes {
			lanes[l] = entries[(i+3*l)%len(entries)]
		}
		pool = append(pool, wire.Lanes(lanes[:k]))
		for l := 1; l < k; l++ {
			lanes[l] = lanes[l-1]
		}
		pool = append(pool, wire.Lanes(lanes[:k]))
	}
	return append(pool,
		append([]byte{0}, wire.Lanes(lanes[:k])...),
		wire.Lanes(lanes[:k+1]),
		wire.Lanes(lanes[:k-1]),
		append(wire.Lanes(lanes[:k]), 1),
	)
}

// LaneInbox is lane l of a round of k-lane frames as a one-lane round, read
// by the frame's rules spelled out here rather than by wire.SplitLanes, as
// the oracle of whatever counts lanes: each sender's first message is k
// uvarint-length-prefixed entries, a zero length repeating the entry
// before (illegal in lane 0), nothing after the k-th; a message that does
// not split that way leaves its sender out of every lane.
func LaneInbox(in []transport.Message, k, l int) []transport.Message {
	var out []transport.Message
	seen := map[transport.PartyID]bool{}
	for _, m := range in {
		if !seen[m.From] {
			seen[m.From] = true
			if entries, ok := splitLanes(m.Payload, k); ok {
				out = append(out, transport.Message{From: m.From, Payload: entries[l]})
			}
		}
	}
	return out
}

func splitLanes(raw []byte, k int) ([][]byte, bool) {
	entries := make([][]byte, k)
	for i := range entries {
		n, size := binary.Uvarint(raw)
		if size <= 0 || n > uint64(len(raw)-size) || (n == 0 && i == 0) {
			return nil, false
		}
		raw = raw[size:]
		if n == 0 {
			entries[i] = entries[i-1]
		} else {
			entries[i], raw = raw[:n], raw[n:]
		}
	}
	return entries, len(raw) == 0
}
