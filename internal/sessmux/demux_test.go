package sessmux

import (
	"encoding/binary"
	"reflect"
	"testing"

	"convexagreement/internal/transport"
)

// demuxMap is the demux of the mux before the merge-join: one m.open map
// lookup per message. It is FuzzDemux's oracle.
func (m *Mux) demuxMap(in []transport.Message) {
	for _, s := range m.open {
		s.inbox = s.inbox[:0]
	}
	var counts map[uint64][]int // per session: messages held per sender
	for _, msg := range in {
		sid, payload, ok := unframe(msg.Payload)
		if !ok {
			continue // undecodable byzantine frame
		}
		s := m.open[sid]
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

// demuxBase is an 8-party base for muxes that are never flushed.
type demuxBase struct{}

func (demuxBase) ID() transport.PartyID { return 0 }
func (demuxBase) N() int                { return 8 }
func (demuxBase) T() int                { return 0 }
func (demuxBase) Exchange([]transport.Packet) ([]transport.Message, error) {
	return nil, nil
}

// demuxInput decodes a fuzz input into a session set and an inbox. The
// first byte gives the number of sessions (1–8); each session takes two
// bytes, its sid (sids repeat, so a duplicate is skipped) and its width
// n_s (1–8). Every further three bytes are one run of messages: the sender
// (0–9, so up to two senders beyond the base and more beyond n_s), the
// sid (below 200 a local session's, else that byte itself or a sid two
// varint bytes long, both mostly unknown; 255 is an undecodable frame),
// and a count byte whose high bit repeats the message up to 127 times —
// enough to flood a session past its 64·n_s bound. Each message's payload
// is its index in the inbox, so every delivery is distinguishable.
func demuxInput(data []byte) (sessions [][2]int, in []transport.Message) {
	if len(data) == 0 {
		return nil, nil
	}
	k := 1 + int(data[0])%8
	data = data[1:]
	for ; k > 0 && len(data) >= 2; k-- {
		sessions = append(sessions, [2]int{int(data[0]), 1 + int(data[1])%8})
		data = data[2:]
	}
	if len(sessions) == 0 {
		return nil, nil
	}
	for ; len(data) >= 3; data = data[3:] {
		from, sel, count := int(data[0])%10, data[1], data[2]
		var frame []byte
		switch {
		case sel == 255:
			frame = []byte{0x80} // a varint that never ends
		case sel < 200:
			frame = binary.AppendUvarint(nil, uint64(sessions[int(sel)%len(sessions)][0]))
		case sel%2 == 0:
			frame = binary.AppendUvarint(nil, uint64(sel))
		default:
			frame = binary.AppendUvarint(nil, uint64(sel)<<7)
		}
		reps := 1
		if count&0x80 != 0 {
			reps = int(count & 0x7f)
		}
		for ; reps > 0; reps-- {
			in = append(in, transport.Message{From: from, Payload: binary.AppendUvarint(frame[:len(frame):len(frame)], uint64(len(in)))})
		}
	}
	return sessions, in
}

// FuzzDemux holds the merge-join demux to the map-based oracle on arbitrary
// inboxes — out-of-order and repeated sids, unknown sids, undecodable
// frames, senders outside the session and floods past the shed bound:
// every session's inbox and the SessionShed count must be identical.
func FuzzDemux(f *testing.F) {
	// Three sessions, honest ascending runs from every sender.
	f.Add([]byte{2, 3, 4, 9, 8, 40, 2, 0, 0, 0, 0, 1, 0, 0, 2, 0, 1, 0, 0, 1, 1, 0, 1, 2, 0})
	// Descending and repeated sids, unknown sids, a bad frame, wide senders.
	f.Add([]byte{3, 7, 8, 5, 4, 200, 8, 1, 0, 0, 0, 3, 0, 0, 2, 0, 0, 1, 0, 0, 3, 0, 0, 202, 0, 0, 203, 0, 0, 255, 0, 9, 0, 0, 6, 2, 0, 5, 1, 0, 5, 0, 0})
	// A one-party session flooded past 64 by one sender, then by another.
	f.Add([]byte{1, 1, 1, 6, 2, 0, 0, 0, 0xff, 0, 0, 0x81, 1, 0, 0xc0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		sessions, in := demuxInput(data)
		join, oracle := New(demuxBase{}), New(demuxBase{})
		for _, m := range []*Mux{join, oracle} {
			for _, sh := range sessions {
				if _, dup := m.open[uint64(sh[0])]; !dup {
					if _, err := m.Open(uint64(sh[0]), sh[1], 0); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		join.demux(in)
		oracle.demuxMap(in)
		for sid, s := range oracle.open {
			if got := join.open[sid].inbox; !reflect.DeepEqual(got, s.inbox) {
				t.Fatalf("session %d: merge-join inbox %v, oracle %v", sid, got, s.inbox)
			}
		}
		if join.stats.SessionShed != oracle.stats.SessionShed {
			t.Fatalf("SessionShed: merge-join %d, oracle %d", join.stats.SessionShed, oracle.stats.SessionShed)
		}
	})
}
