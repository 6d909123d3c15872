package transporttest

import (
	"bytes"

	"convexagreement/internal/transport"
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
