package transport_test

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"convexagreement/internal/transport"
	"convexagreement/internal/transporttest"
)

// These tests hold transporttest.FirstPerSender, the quorum oracles'
// listing, to its contract and to the set-based oracle, and transport.Firsts'
// runs to that oracle's list.

// TestFirstPerSenderKeepsFirst: an ascending inbox — what every Net
// delivers in an honest round — comes back as the very same slice, with no
// allocation; a repeated sender or a broken order is filtered to the first
// message of each sender, in order of first appearance, into the caller's
// scratch, which a second call reuses.
func TestFirstPerSenderKeepsFirst(t *testing.T) {
	msg := func(from transport.PartyID, b byte) transport.Message {
		return transport.Message{From: from, Payload: []byte{b}}
	}
	cases := []struct {
		name  string
		in    []transport.Message
		want  []transport.Message
		alias bool // the result is the inbox itself
	}{
		{"empty", nil, nil, true},
		{"ascending", []transport.Message{msg(0, 1), msg(2, 2), msg(5, 3)}, []transport.Message{msg(0, 1), msg(2, 2), msg(5, 3)}, true},
		{"repeated", []transport.Message{msg(1, 1), msg(1, 2), msg(4, 3), msg(4, 4)}, []transport.Message{msg(1, 1), msg(4, 3)}, false},
		{"unsorted", []transport.Message{msg(3, 1), msg(1, 2), msg(3, 3), msg(1, 4)}, []transport.Message{msg(3, 1), msg(1, 2)}, false},
	}
	var scratch []transport.Message
	for _, c := range cases {
		got := transporttest.FirstPerSender(c.in, &scratch)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: FirstPerSender = %v, want %v", c.name, got, c.want)
		}
		if aliased := len(got) == len(c.in) && (len(got) == 0 || &got[0] == &c.in[0]); aliased != c.alias {
			t.Errorf("%s: result aliases the inbox: %v, want %v", c.name, aliased, c.alias)
		}
		if !c.alias && &got[0] != &scratch[0] {
			t.Errorf("%s: the filtered inbox is not in the caller's scratch", c.name)
		}
	}
	ascending, repeated, unsorted := cases[1].in, cases[2].in, cases[3].in
	for _, c := range []struct {
		name string
		in   []transport.Message
	}{{"ascending", ascending}, {"repeated", repeated}, {"unsorted", unsorted}} {
		if allocs := testing.AllocsPerRun(100, func() { sink = transporttest.FirstPerSender(c.in, &scratch) }); allocs != 0 {
			t.Errorf("%s inbox: %v allocs per call on a grown scratch, want 0", c.name, allocs)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { sink = transporttest.FirstPerSender(repeated, nil) }); allocs != 1 {
		t.Errorf("sorted inbox with repeats, no scratch: %v allocs per call, want 1 (the copy)", allocs)
	}
}

var sink []transport.Message

// checkFirstPerSender holds FirstPerSender to the set-based oracle, and
// Firsts' runs to the oracle's list cut wherever a payload's bytes change.
func checkFirstPerSender(t *testing.T, in []transport.Message) {
	t.Helper()
	got, want := transporttest.FirstPerSender(in, nil), transport.OracleFirstPerSender(in)
	if len(got) != len(want) {
		t.Fatalf("%d messages, oracle %d on %v", len(got), len(want), in)
	}
	for i := range got {
		if got[i].From != want[i].From || !transport.SamePayload(got[i].Payload, want[i].Payload) {
			t.Fatalf("message %d: got %v, oracle %v on %v", i, got[i], want[i], in)
		}
	}
	i := 0
	for f := transport.FirstsOf(in); f.Run(); {
		if m := f.Message(); i >= len(want) || m.From != want[i].From || !transport.SamePayload(m.Payload, want[i].Payload) {
			t.Fatalf("run at oracle message %d starts with %v on %v", i, m, in)
		}
		j := i + 1
		for j < len(want) && string(want[j].Payload) == string(want[i].Payload) {
			j++
		}
		if f.Count() != j-i {
			t.Fatalf("run at oracle message %d: %d long, oracle %d on %v", i, f.Count(), j-i, in)
		}
		i = j
	}
	if i != len(want) {
		t.Fatalf("runs cover %d of the oracle's %d messages on %v", i, len(want), in)
	}
}

// TestFirstPerSenderMatchesOracle: sorted inboxes with and without
// repeated senders, and unsorted ones, against the set-based filter.
func TestFirstPerSenderMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 5000; trial++ {
		raw := make([]byte, rng.Intn(40))
		for i := range raw {
			raw[i] = byte(rng.Intn(5))
		}
		in := transport.InboxFrom(raw)
		checkFirstPerSender(t, in)
		slices.SortStableFunc(in, transport.BySender)
		checkFirstPerSender(t, in)
	}
}

func FuzzFirstPerSender(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 7, 0, 1, 8, 2, 0, 2, 1, 9, 5, 0})
	f.Add([]byte{3, 1, 7, 1, 0, 3, 0, 2, 1, 9})
	// A run of equal payloads broken by a sender's repeat, and the same
	// senders out of order.
	f.Add([]byte{0, 1, 7, 1, 1, 7, 1, 1, 8, 2, 1, 7, 3, 1, 7})
	f.Add([]byte{2, 1, 7, 0, 1, 7, 2, 1, 8, 1, 1, 7, 0, 1, 9})
	f.Fuzz(func(t *testing.T, raw []byte) {
		in := transport.InboxFrom(raw)
		checkFirstPerSender(t, in)
		slices.SortStableFunc(in, transport.BySender)
		checkFirstPerSender(t, in)
	})
}
