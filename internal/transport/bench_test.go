package transport

import (
	"bytes"
	"testing"

	"convexagreement/internal/wire"
)

// benchRounds are the three n = 16 inboxes the counting benchmarks read,
// sorted by sender as every Net delivers them, each payload in a slice of
// its own as TCP delivers it: every party sending the same frame; the same
// round with t = 5 interleaved senders (1, 4, 7, 10, 13) each sending a
// frame of its own; and the same five spamming — each sends the honest
// frame, then its own frame and the honest one again, as the catalogue's
// spam strategy repeats itself on one channel — so the first messages
// form one run that the repeats interrupt.
func benchRounds(frame func(dev int) []byte) map[string][]Message {
	const n = 16
	rounds := map[string][]Message{"agree": make([]Message, n), "deviant5": make([]Message, n)}
	for i := 0; i < n; i++ {
		rounds["agree"][i] = Message{From: i, Payload: frame(0)}
		p := frame(0)
		deviant := i%3 == 1 && i < n-1
		if deviant {
			p = frame(1 + i)
		}
		rounds["deviant5"][i] = Message{From: i, Payload: p}
		rounds["spam"] = append(rounds["spam"], Message{From: i, Payload: frame(0)})
		if deviant {
			rounds["spam"] = append(rounds["spam"], Message{From: i, Payload: frame(1 + i)}, Message{From: i, Payload: frame(0)})
		}
	}
	return rounds
}

// BenchmarkLaneVotesCount_n16 counts one round of 12-lane bit frames: an
// honest sender's lanes cycle through 0, 1 and ⊥, a deviant's read its own
// pattern.
func BenchmarkLaneVotesCount_n16(b *testing.B) {
	const k = 12
	rounds := benchRounds(func(dev int) []byte {
		lanes := make([]byte, k)
		for l := range lanes {
			lanes[l] = byte((l + dev>>(l%4)) % 3)
		}
		frame := make([]byte, LaneBytes(k))
		PackLanes(frame, lanes)
		return frame
	})
	for _, name := range []string{"agree", "deviant5", "spam"} {
		in := rounds[name]
		b.Run(name, func(b *testing.B) {
			votes := make(LaneVotes, k)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				votes.Count(in)
			}
		})
	}
}

// BenchmarkLaneTallies_n16 tallies one round of 6-lane option frames
// holding 8-byte values (Turpin–Coan's first round on 64-bit inputs): a
// deviant sends its own value in every lane.
func BenchmarkLaneTallies_n16(b *testing.B) {
	const k = 6
	rounds := benchRounds(func(dev int) []byte {
		lanes := make([][]byte, k)
		for l := range lanes {
			lanes[l] = wire.Some(bytes.Repeat([]byte{byte(16*dev + l)}, 8))
		}
		return wire.Lanes(lanes)
	})
	for _, name := range []string{"agree", "deviant5", "spam"} {
		in := rounds[name]
		b.Run(name, func(b *testing.B) {
			tallies, entries := make([]Tally, k), make([][]byte, k)
			LaneTallies(in, tallies, entries, AddOption) // grow the tallies once, as a work set keeps them
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				LaneTallies(in, tallies, entries, AddOption)
			}
		})
	}
}
