package transporttest

import (
	"bytes"
	"encoding/binary"

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
