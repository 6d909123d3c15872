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
		want, wantCount := oracleMajorityBit(in)
		if bit, c := MajorityBit(in); bit != want || c != wantCount {
			t.Fatalf("MajorityBit = (%d, %d), oracle (%d, %d) on %v", bit, c, want, wantCount, in)
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

// The one-bit decoder and count LaneVotes' one-lane case replaced, kept
// verbatim as its oracles.

func oracleBit(payload []byte) (byte, bool) {
	if len(payload) != 1 || payload[0] > 1 {
		return 0, false
	}
	return payload[0], true
}

func oracleMajorityBit(in []Message) (bit byte, count int) {
	var counts [2]int
	for _, m := range FirstPerSender(in) {
		if b, ok := oracleBit(m.Payload); ok {
			counts[b]++
		}
	}
	if counts[1] > counts[0] {
		bit = 1
	}
	return bit, counts[bit]
}

// oracleLanes decodes a k-lane frame one bit at a time: the payload as a
// little-endian bit string, lane l its bits 2l and 2l+1, every bit from 2k
// on zero, exactly ⌈k/4⌉ bytes.
func oracleLanes(payload []byte, k int) ([]byte, bool) {
	if len(payload)*4 < k || (len(payload)-1)*4 >= k {
		return nil, false
	}
	bit := func(i int) byte { return payload[i/8] >> (i % 8) & 1 }
	for i := 2 * k; i < 8*len(payload); i++ {
		if bit(i) != 0 {
			return nil, false
		}
	}
	lanes := make([]byte, k)
	for l := range lanes {
		lanes[l] = bit(2*l) + 2*bit(2*l+1)
	}
	return lanes, true
}

// checkLanes holds the lane vocabulary to the rejection rules on one inbox:
// a payload of the wrong length or with non-zero padding is ignored whole, a
// lane reading ⊥ or 3 is ignored alone, and at k = 1 the frame, the decoder
// and the count are the one-byte 0/1 message's.
func checkLanes(t *testing.T, in []Message, k int) {
	t.Helper()
	want := make(LaneVotes, k)
	for _, m := range FirstPerSender(in) {
		lanes, ok := oracleLanes(m.Payload, k)
		got := bytes.Repeat([]byte{0xEE}, k)
		if UnpackLanes(m.Payload, got) != ok {
			t.Fatalf("k=%d: UnpackLanes(%x) = %v, oracle %v", k, m.Payload, !ok, ok)
		}
		if !ok {
			if !bytes.Equal(got, bytes.Repeat([]byte{0xEE}, k)) {
				t.Fatalf("k=%d: UnpackLanes(%x) rejected the frame and wrote %x", k, m.Payload, got)
			}
			continue
		}
		if !bytes.Equal(got, lanes) {
			t.Fatalf("k=%d: UnpackLanes(%x) = %v, oracle %v", k, m.Payload, got, lanes)
		}
		for l, b := range lanes {
			if b <= 1 {
				want[l][b]++
			}
		}
		if b, isBit := oracleBit(m.Payload); k == 1 && (isBit != (lanes[0] <= 1) || (isBit && b != lanes[0])) {
			t.Fatalf("k=1: frame %x reads %d, the one-byte decoder (%d, %v)", m.Payload, lanes[0], b, isBit)
		}
	}
	votes := make(LaneVotes, k)
	for l := range votes {
		votes[l] = [2]int{99, 99} // Count must not add to last round's
	}
	votes.Count(in)
	if !reflect.DeepEqual(votes, want) {
		t.Fatalf("k=%d: Count = %v, oracle %v on %v", k, votes, want, in)
	}
	for l := range votes {
		wantBit := byte(0)
		if want[l][1] > want[l][0] {
			wantBit = 1
		}
		if bit, c := votes.Majority(l); bit != wantBit || c != want[l][wantBit] {
			t.Fatalf("k=%d lane %d: Majority = (%d, %d), oracle (%d, %d)", k, l, bit, c, wantBit, want[l][wantBit])
		}
	}
	if k == 1 {
		bit, c := votes.Majority(0)
		if wantBit, wantC := oracleMajorityBit(in); bit != wantBit || c != wantC {
			t.Fatalf("k=1: Majority = (%d, %d), the one-byte count (%d, %d) on %v", bit, c, wantBit, wantC, in)
		}
		if gotBit, gotC := MajorityBit(in); gotBit != bit || gotC != c {
			t.Fatalf("MajorityBit = (%d, %d), one-lane LaneVotes (%d, %d) on %v", gotBit, gotC, bit, c, in)
		}
	}
}

func TestLanesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 5000; trial++ {
		raw := make([]byte, rng.Intn(40))
		rng.Read(raw)
		for i := range raw {
			if rng.Intn(3) > 0 {
				raw[i] &= 0x57 // mostly lanes that read 0, 1 or ⊥, so counts build up
			}
		}
		checkLanes(t, inboxFrom(raw), 1+trial%12)
	}
}

func FuzzLanes(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0, 1, 1, 1, 1, 0, 2, 1, 2, 3, 1, 3, 4, 1, 4, 5, 2, 0, 0}, uint8(0))
	f.Add([]byte{0, 2, 0x11, 0x01, 1, 2, 0x99, 0x02, 2, 2, 0x45, 0x10, 3, 3, 1, 1, 1, 4, 1, 0x12}, uint8(5))
	f.Fuzz(func(t *testing.T, raw []byte, k uint8) { checkLanes(t, inboxFrom(raw), 1+int(k%12)) })
}

// TestPackLanes: PackLanes is UnpackLanes' inverse on every lane value an
// honest party sends, overwrites what the buffer held, and at one lane
// writes the byte the one-bit protocols have always sent.
func TestPackLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for k := 0; k <= 21; k++ {
		lanes, got := make([]byte, k), make([]byte, k)
		for i := range lanes {
			lanes[i] = byte(rng.Intn(3))
		}
		frame := bytes.Repeat([]byte{0xFF}, LaneBytes(k))
		PackLanes(frame, lanes)
		if !UnpackLanes(frame, got) || !bytes.Equal(got, lanes) {
			t.Errorf("k=%d: %v packed to %x, unpacked to %v", k, lanes, frame, got)
		}
	}
	for _, v := range []byte{0, 1, LaneBot} {
		frame := []byte{0xFF}
		if PackLanes(frame, []byte{v}); frame[0] != v {
			t.Errorf("one lane %d packed to %x", v, frame)
		}
	}
}
