package mux_test

import (
	"encoding/binary"
	"reflect"
	"sync"
	"testing"

	"convexagreement/internal/mux"
	"convexagreement/internal/transport"
)

// stubNet replays a fabricated physical-round inbox, letting backpressure
// tests craft hostile delivery patterns no honest transport would produce.
type stubNet struct {
	n  int
	in []transport.Message
}

func (s *stubNet) ID() transport.PartyID { return 1 }
func (s *stubNet) N() int                { return s.n }
func (s *stubNet) T() int                { return 1 }
func (s *stubNet) Exchange(out []transport.Packet) ([]transport.Message, error) {
	return s.in, nil
}

// frame prefixes a payload with its instance id, as the merge does on the
// send side.
func frame(inst int, payload string) []byte {
	return append(binary.AppendUvarint(nil, uint64(inst)), payload...)
}

// runOneRound drives both instances of a 2-instance mux through one
// virtual round and returns each instance's inbox.
func runOneRound(t *testing.T, m *mux.Mux) [2][]transport.Message {
	t.Helper()
	var out [2][]transport.Message
	var wg sync.WaitGroup
	for inst := 0; inst < 2; inst++ {
		wg.Add(1)
		go func(inst int) {
			defer wg.Done()
			in, err := m.Net(inst).Exchange(nil)
			if err != nil {
				t.Errorf("instance %d: %v", inst, err)
				return
			}
			out[inst] = in
		}(inst)
	}
	wg.Wait()
	return out
}

// TestInboxBoundShedsFlood: a peer pumping hundreds of messages into one
// instance is capped at the bound; the honest senders' messages survive,
// the sibling instance is untouched, and the shed counter reports the
// loss. Flood-after-honest exercises the drop-incoming arm of the policy.
func TestInboxBoundShedsFlood(t *testing.T) {
	const bound, floodN = 8, 300
	var in []transport.Message
	for s := 0; s < 3; s++ { // honest senders 0..2: one message per instance
		in = append(in, transport.Message{From: transport.PartyID(s), Payload: frame(0, "honest")})
		in = append(in, transport.Message{From: transport.PartyID(s), Payload: frame(1, "honest")})
	}
	for i := 0; i < floodN; i++ { // sender 3 floods instance 0
		in = append(in, transport.Message{From: 3, Payload: frame(0, "flood")})
	}
	m, err := mux.New(&stubNet{n: 4, in: in}, 2)
	if err != nil {
		t.Fatal(err)
	}
	m.SetInboxBound(bound)
	boxes := runOneRound(t, m)

	if len(boxes[0]) != bound {
		t.Fatalf("instance 0 inbox = %d messages, want bound %d", len(boxes[0]), bound)
	}
	honest := 0
	for _, msg := range boxes[0] {
		if string(msg.Payload) == "honest" {
			honest++
		}
	}
	if honest != 3 {
		t.Fatalf("flood displaced honest traffic: %d/3 honest messages survive", honest)
	}
	if len(boxes[1]) != 3 {
		t.Fatalf("sibling instance disturbed: %d messages, want 3", len(boxes[1]))
	}
	if got := m.Shed(); got != uint64(3+floodN-bound) {
		t.Fatalf("Shed() = %d, want %d", got, 3+floodN-bound)
	}
}

// TestInboxBoundEvictsHeaviest: when the flood arrives BEFORE the honest
// traffic, a full inbox must evict the flooder's oldest messages to admit
// honest ones — the evict arm of shed-oldest-from-faulty.
func TestInboxBoundEvictsHeaviest(t *testing.T) {
	const bound, floodN = 8, 100
	var in []transport.Message
	for i := 0; i < floodN; i++ { // sender 0 floods instance 0 first
		in = append(in, transport.Message{From: 0, Payload: frame(0, "flood")})
	}
	for s := 1; s < 4; s++ { // honest senders 1..3 arrive after
		in = append(in, transport.Message{From: transport.PartyID(s), Payload: frame(0, "honest")})
	}
	m, err := mux.New(&stubNet{n: 4, in: in}, 2)
	if err != nil {
		t.Fatal(err)
	}
	m.SetInboxBound(bound)
	boxes := runOneRound(t, m)

	if len(boxes[0]) != bound {
		t.Fatalf("inbox = %d messages, want bound %d", len(boxes[0]), bound)
	}
	honest := 0
	for _, msg := range boxes[0] {
		if string(msg.Payload) == "honest" {
			honest++
		}
	}
	if honest != 3 {
		t.Fatalf("late honest traffic lost to an earlier flood: %d/3 survive", honest)
	}
}

// TestShedDeterministic: the shed policy is a pure function of delivery
// order — two identical runs keep byte-identical inboxes, which the
// replay-digest battery depends on.
func TestShedDeterministic(t *testing.T) {
	build := func() [2][]transport.Message {
		var in []transport.Message
		for i := 0; i < 50; i++ {
			in = append(in, transport.Message{From: 2, Payload: frame(0, "flood")})
		}
		for s := 0; s < 4; s++ {
			in = append(in, transport.Message{From: transport.PartyID(s), Payload: frame(0, "h")})
		}
		m, err := mux.New(&stubNet{n: 4, in: in}, 2)
		if err != nil {
			t.Fatal(err)
		}
		m.SetInboxBound(6)
		return runOneRound(t, m)
	}
	a, b := build(), build()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("shed policy not deterministic:\n%v\n%v", a, b)
	}
}

// TestInboxBoundDisabled: SetInboxBound(0) restores the unbounded PR 6
// behavior.
func TestInboxBoundDisabled(t *testing.T) {
	var in []transport.Message
	for i := 0; i < 500; i++ {
		in = append(in, transport.Message{From: 3, Payload: frame(0, "flood")})
	}
	m, err := mux.New(&stubNet{n: 4, in: in}, 2)
	if err != nil {
		t.Fatal(err)
	}
	m.SetInboxBound(0)
	boxes := runOneRound(t, m)
	if len(boxes[0]) != 500 || m.Shed() != 0 {
		t.Fatalf("unbounded mux shed traffic: %d kept, %d shed", len(boxes[0]), m.Shed())
	}
}
