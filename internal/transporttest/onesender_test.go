package transporttest_test

import (
	"fmt"
	"testing"

	"convexagreement/internal/ba"
	"convexagreement/internal/bc"
	"convexagreement/internal/highcostca"
	"convexagreement/internal/transport"
	"convexagreement/internal/wire"
)

// scripted is party 1 of an n = 4, t = 1 network whose inboxes are written
// in advance (empty once the script runs out); it renders everything the
// party sends, round by round.
type scripted struct {
	inboxes [][]transport.Message
	round   int
	sent    string
}

func (s *scripted) ID() transport.PartyID { return 1 }
func (s *scripted) N() int                { return 4 }
func (s *scripted) T() int                { return 1 }
func (s *scripted) Exchange(out []transport.Packet) ([]transport.Message, error) {
	s.sent += fmt.Sprintf("round %d:", s.round)
	for _, p := range out {
		s.sent += fmt.Sprintf(" %d<-%s:%x", p.To, p.Tag, p.Payload)
	}
	s.sent += "\n"
	var in []transport.Message
	if s.round < len(s.inboxes) {
		in = s.inboxes[s.round]
	}
	s.round++
	return in, nil
}

// TestOneSenderRoundRules pins, as they are today, which of a spamming
// sender's messages each one-sender round counts: phase-king the king's
// last well-formed bit, HIGHCOSTCA the king's first message (any bytes are a
// natural), Byzantine Broadcast the sender's first message (garbage is a
// frame like any other: the broadcast then agrees on ⊥). Party 0 — king of
// phase 0, the broadcaster — sends two messages in its round; everything
// party 1 sends afterwards must equal what it sends when party 0 sent only
// the message the rule selects, and differ from the other one's run.
func TestOneSenderRoundRules(t *testing.T) {
	from := func(j transport.PartyID, payloads ...[]byte) []transport.Message {
		var in []transport.Message
		for _, p := range payloads {
			in = append(in, transport.Message{From: j, Payload: p})
		}
		return in
	}
	all := func(a, b, c []byte) []transport.Message {
		return []transport.Message{{From: 1, Payload: a}, {From: 2, Payload: b}, {From: 3, Payload: c}}
	}
	garbage := []byte{0xFF, 0xFF}
	interval := []byte{1, 10, 1, 30} // wire: Bytes(10) Bytes(30)
	sites := []struct {
		name   string
		before [][]transport.Message // the rounds leading up to the one-sender round
		run    func(net transport.Net) error
		cases  []struct{ spam, counts [][]byte }
	}{
		{
			name: "ba.Binary",
			// Split honest inputs: no n−t majority, nobody proposes, so the
			// phase ends on the king's word.
			before: [][]transport.Message{all([]byte{1}, []byte{0}, []byte{1}), all([]byte{2}, []byte{2}, []byte{2})},
			run:    func(net transport.Net) error { _, err := ba.Binary(net, "t", 1, nil); return err },
			cases: []struct{ spam, counts [][]byte }{
				{[][]byte{garbage, {1}}, [][]byte{{1}}},
				{[][]byte{{1}, garbage}, [][]byte{{1}}},
				{[][]byte{{0}, {1}}, [][]byte{{1}}},
				{[][]byte{{1}, {0}}, [][]byte{{0}}},
			},
		},
		{
			name: "highcostca.Run",
			// Inputs 10, 20, 30 give every party the trusted interval
			// [10, 30]; the CURRENT values then differ and nobody proposes,
			// so party 1 votes exactly when the king's value is in the
			// interval: 15 is, 0xFFFF is not.
			before: [][]transport.Message{
				all([]byte{10}, []byte{20}, []byte{30}), all(interval, interval, interval),
				all([]byte{10}, []byte{20}, []byte{30}), nil,
			},
			run: func(net transport.Net) error { _, err := highcostca.Run(net, "t", []byte{10}, nil); return err },
			cases: []struct{ spam, counts [][]byte }{
				{[][]byte{garbage, {15}}, [][]byte{garbage}},
				{[][]byte{{15}, garbage}, [][]byte{{15}}},
			},
		},
		{
			name: "bc.Broadcast",
			run:  func(net transport.Net) error { _, _, err := bc.Broadcast(net, "t", 0, nil); return err },
			cases: []struct{ spam, counts [][]byte }{
				{[][]byte{garbage, wire.Some([]byte{1})}, [][]byte{garbage}},
				{[][]byte{wire.Some([]byte{1}), garbage}, [][]byte{wire.Some([]byte{1})}},
			},
		},
	}
	for _, site := range sites {
		sends := func(sender [][]byte) string {
			net := &scripted{inboxes: append(append([][]transport.Message{}, site.before...), from(0, sender...))}
			if err := site.run(net); err != nil {
				t.Fatalf("%s: %v", site.name, err)
			}
			return net.sent
		}
		for _, c := range site.cases {
			got, want := sends(c.spam), sends(c.counts)
			if got != want {
				t.Errorf("%s: sender spamming %x is not read as %x:\n%s\nwant\n%s", site.name, c.spam, c.counts, got, want)
			}
			for _, other := range c.spam {
				if string(other) != string(c.counts[0]) && sends([][]byte{other}) == want {
					t.Errorf("%s: the run does not depend on the sender's message (%x vs %x)", site.name, other, c.counts[0])
				}
			}
		}
	}
}
