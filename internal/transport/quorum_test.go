package transport

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// tallyOf counts every first-per-sender payload as it is.
func tallyOf(in []Message) Tally {
	var t Tally
	for _, m := range FirstPerSender(in) {
		t.Add(m.Payload)
	}
	return t
}

// oracleTally is the counting every protocol package used to do for
// itself: a map keyed by string(payload), the keys sorted afterwards.
func oracleTally(in []Message) Tally {
	counts := make(map[string]int)
	for _, m := range FirstPerSender(in) {
		counts[string(m.Payload)]++
	}
	keys := make([]string, 0, len(counts))
	for s := range counts {
		keys = append(keys, s)
	}
	sort.Strings(keys)
	var t Tally
	for _, s := range keys {
		t = append(t, Support{Value: []byte(s), Count: counts[s]})
	}
	return t
}

func checkTally(t *testing.T, in []Message) {
	t.Helper()
	got, want := tallyOf(in), oracleTally(in)
	if len(got) != len(want) {
		t.Fatalf("%d distinct values, oracle %d on %v", len(got), len(want), in)
	}
	for i := range got {
		if !bytes.Equal(got[i].Value, want[i].Value) || got[i].Count != want[i].Count {
			t.Fatalf("entry %d: got (%x, %d), oracle (%x, %d) on %v", i, got[i].Value, got[i].Count, want[i].Value, want[i].Count, in)
		}
	}
}

// inboxFrom reads fuzz bytes as (sender, length) pairs followed by that
// many payload bytes: repeated senders, broken order, empty payloads.
func inboxFrom(raw []byte) []Message {
	var in []Message
	for len(raw) >= 2 {
		from, k := PartyID(raw[0]%8), min(int(raw[1]%4), len(raw)-2)
		in = append(in, Message{From: from, Payload: raw[2 : 2+k]})
		raw = raw[2+k:]
	}
	return in
}

func TestTallyMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 5000; trial++ {
		raw := make([]byte, rng.Intn(40))
		for i := range raw {
			raw[i] = byte(rng.Intn(3)) // few distinct bytes, so values collide
		}
		checkTally(t, inboxFrom(raw))
	}
}

func FuzzTally(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 7, 1, 1, 7, 2, 0, 3, 2, 7, 7, 3, 1, 9})
	f.Fuzz(func(t *testing.T, raw []byte) { checkTally(t, inboxFrom(raw)) })
}

// TestTallyAllocations: a round in which all n = 16 parties sent the same
// κ-bit value — the common case on every workload — costs the one-element
// slice and nothing else; a round of 16 distinct values costs the slice's
// doublings.
func TestTallyAllocations(t *testing.T) {
	agreed := make([]Message, 16)
	distinct := make([]Message, 16)
	for i := range agreed {
		agreed[i] = Message{From: i, Payload: bytes.Repeat([]byte{0xA5}, 32)}
		distinct[i] = Message{From: i, Payload: bytes.Repeat([]byte{byte(37 * i)}, 32)}
	}
	if allocs := testing.AllocsPerRun(100, func() { tallySink = tallyOf(agreed) }); allocs > 1 {
		t.Errorf("agreeing round: %v allocs per Tally, want ≤ 1", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { tallySink = tallyOf(distinct) }); allocs > 5 {
		t.Errorf("16 distinct values: %v allocs per Tally, want ≤ 5", allocs)
	}
}

var tallySink Tally

// TestMajorityBitMatchesOracle holds MajorityBit to the count ba.Binary and
// core.GetOutput each used to spell out.
func TestMajorityBitMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	payloads := [][]byte{{0}, {1}, {1}, {2}, {}, {0, 0}, {1, 1}, nil}
	for trial := 0; trial < 5000; trial++ {
		var in []Message
		for k := rng.Intn(12); k > 0; k-- {
			in = append(in, Message{From: rng.Intn(6), Payload: payloads[rng.Intn(len(payloads))]})
		}
		count := [2]int{}
		for _, m := range FirstPerSender(in) {
			if len(m.Payload) == 1 && m.Payload[0] <= 1 {
				count[m.Payload[0]]++
			}
		}
		want := byte(0)
		if count[1] > count[0] {
			want = 1
		}
		if bit, c := MajorityBit(in); bit != want || c != count[want] {
			t.Fatalf("MajorityBit = (%d, %d), oracle (%d, %d) on %v", bit, c, want, count[want], in)
		}
	}
}

// TestSentBy: every message of the named sender, in arrival order — a
// subslice of a sender-sorted inbox, a gathered copy of an unsorted one.
func TestSentBy(t *testing.T) {
	msg := func(from PartyID, b byte) Message { return Message{From: from, Payload: []byte{b}} }
	sorted := []Message{msg(0, 1), msg(2, 2), msg(2, 3), msg(5, 4)}
	unsorted := []Message{msg(2, 1), msg(0, 2), msg(2, 3), msg(5, 4), msg(2, 5)}
	cases := []struct {
		name string
		in   []Message
		j    PartyID
		want []Message
	}{
		{"empty", nil, 0, nil},
		{"silent", sorted, 3, nil},
		{"one", sorted, 5, []Message{msg(5, 4)}},
		{"spam", sorted, 2, []Message{msg(2, 2), msg(2, 3)}},
		{"unsorted", unsorted, 2, []Message{msg(2, 1), msg(2, 3), msg(2, 5)}},
	}
	for _, c := range cases {
		got := SentBy(c.in, c.j)
		if len(got) != len(c.want) || (len(got) > 0 && !reflect.DeepEqual(got, c.want)) {
			t.Errorf("%s: SentBy = %v, want %v", c.name, got, c.want)
		}
	}
	if !reflect.DeepEqual(unsorted[3], msg(5, 4)) {
		t.Error("gathering an unsorted inbox wrote into it")
	}
	if allocs := testing.AllocsPerRun(100, func() { sink = SentBy(sorted, 2) }); allocs != 0 {
		t.Errorf("sorted inbox: %v allocs per call, want 0", allocs)
	}
}
