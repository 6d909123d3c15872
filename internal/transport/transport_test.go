package transport

import (
	"errors"
	"reflect"
	"testing"
)

// fakeNet records what Exchange receives and returns a canned inbox.
type fakeNet struct {
	id      PartyID
	n, t    int
	lastOut []Packet
	inbox   []Message
	err     error
}

func (f *fakeNet) ID() PartyID { return f.id }
func (f *fakeNet) N() int      { return f.n }
func (f *fakeNet) T() int      { return f.t }
func (f *fakeNet) Exchange(out []Packet) ([]Message, error) {
	f.lastOut = out
	return f.inbox, f.err
}

func TestBroadcastAddressesEveryParty(t *testing.T) {
	net := &fakeNet{id: 2, n: 5, t: 1}
	pkts := Broadcast(net, "tag", []byte{7})
	if len(pkts) != 5 {
		t.Fatalf("%d packets", len(pkts))
	}
	seen := map[PartyID]bool{}
	for _, p := range pkts {
		if p.Tag != "tag" || len(p.Payload) != 1 || p.Payload[0] != 7 {
			t.Fatalf("bad packet %+v", p)
		}
		seen[p.To] = true
	}
	for i := 0; i < 5; i++ {
		if !seen[PartyID(i)] {
			t.Fatalf("party %d not addressed", i)
		}
	}
}

func TestExchangeAllAndNone(t *testing.T) {
	net := &fakeNet{id: 0, n: 3, inbox: []Message{{From: 1, Payload: []byte{9}}}}
	in, err := ExchangeAll(net, "x", []byte{1}, nil)
	if err != nil || len(in) != 1 {
		t.Fatalf("in=%v err=%v", in, err)
	}
	if len(net.lastOut) != 3 {
		t.Fatalf("ExchangeAll sent %d packets", len(net.lastOut))
	}
	if _, err := ExchangeNone(net); err != nil {
		t.Fatal(err)
	}
	if net.lastOut != nil {
		t.Fatalf("ExchangeNone sent %d packets", len(net.lastOut))
	}
	boom := errors.New("boom")
	net.err = boom
	if _, err := ExchangeAll(net, "x", nil, nil); !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
}

// TestExchangeAllRefillsFan: a caller-kept fan-out is what ExchangeAll
// hands Exchange, refilled in place round after round — Broadcast's n
// packets, all on the one payload slice — and is not reallocated once it
// has the room.
func TestExchangeAllRefillsFan(t *testing.T) {
	net := &fakeNet{id: 1, n: 4}
	var fan []Packet
	for r := range 3 {
		payload := []byte{byte(r), 0xfa}
		if _, err := ExchangeAll(net, "f", payload, &fan); err != nil {
			t.Fatal(err)
		}
		if len(net.lastOut) == 0 || &net.lastOut[0] != &fan[0] {
			t.Fatalf("round %d: Exchange was not handed the caller's fan-out", r)
		}
		if !reflect.DeepEqual(fan, Broadcast(net, "f", payload)) {
			t.Fatalf("round %d: fan-out %+v, want Broadcast's packets", r, fan)
		}
		for _, p := range fan {
			if !SamePayload(p.Payload, payload) {
				t.Fatalf("round %d: packet to %d carries a copy, not the payload slice", r, p.To)
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { ExchangeAll(net, "f", nil, &fan) }); allocs != 0 {
		t.Errorf("a refill allocates %v times", allocs)
	}
}

// TestSamePayload: identity, never content — the same start and length, or
// both empty.
func TestSamePayload(t *testing.T) {
	buf := []byte{1, 2, 3, 1, 2, 3}
	cases := []struct {
		a, b []byte
		want bool
	}{
		{buf[:3], buf[:3], true},
		{buf[:3], buf[3:], false}, // equal bytes elsewhere
		{buf[:3], buf[:2], false}, // same start, other length
		{buf[:0], nil, true},
		{nil, nil, true},
		{buf[:1], nil, false},
	}
	for _, c := range cases {
		if got := SamePayload(c.a, c.b); got != c.want {
			t.Errorf("SamePayload(%v@%p, %v@%p) = %v, want %v", c.a, c.a, c.b, c.b, got, c.want)
		}
	}
}

var sink []Message

func bySender(a, b Message) int { return a.From - b.From }

// oracleFirstPerSender is the set-based first-per-sender filter: a set of
// the senders seen, the first message of each kept in order of first
// appearance. The quorum oracles read a round through it, and
// transporttest.FirstPerSender is held to it.
func oracleFirstPerSender(msgs []Message) []Message {
	seen := make(map[PartyID]bool)
	var out []Message
	for _, m := range msgs {
		if !seen[m.From] {
			seen[m.From] = true
			out = append(out, m)
		}
	}
	return out
}
