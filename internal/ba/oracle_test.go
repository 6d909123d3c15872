package ba

import (
	"bytes"
	"math/rand"
	"testing"

	"convexagreement/internal/transport"
	"convexagreement/internal/transporttest"
	"convexagreement/internal/wire"
)

// The functions Multivalued's two picks over a transport.Tally replaced, kept verbatim
// as the oracle: their own option frame, a map[string]int per round and a
// []byte(key) round trip per value.

func oracleEncodeTC(v []byte) []byte {
	w := wire.NewWriter(1 + len(v))
	w.Byte(1)
	w.Raw(v)
	return w.Finish()
}

func oracleDecodeTC(raw []byte) ([]byte, bool) {
	if len(raw) < 1 || raw[0] != 1 {
		return nil, false
	}
	return raw[1:], true
}

func oracleTCMajority(in []transport.Message, threshold int) ([]byte, bool) {
	counts := make(map[string]int)
	for _, m := range transport.FirstPerSender(in) {
		if v, ok := oracleDecodeTC(m.Payload); ok {
			counts[string(v)]++
		}
	}
	for s, c := range counts {
		if c >= threshold {
			return []byte(s), true
		}
	}
	return nil, false
}

func oracleTCBest(in []transport.Message) ([]byte, int) {
	counts := make(map[string]int)
	for _, m := range transport.FirstPerSender(in) {
		if v, ok := oracleDecodeTC(m.Payload); ok {
			counts[string(v)]++
		}
	}
	var best string
	bestCount := 0
	for s, c := range counts {
		if c > bestCount || (c == bestCount && s < best) {
			best, bestCount = s, c
		}
	}
	return []byte(best), bestCount
}

// tcPool is what a Turpin–Coan round can carry: present values (the empty
// one included), ⊥, and frames that are neither.
var tcPool = [][]byte{
	wire.Some(nil), wire.Some([]byte{0}), wire.Some([]byte{1}), wire.Some([]byte("a")),
	wire.Some([]byte("ab")), wire.Some([]byte("b")), wire.None(), {0, 7}, {2, 'a'}, {1},
}

// checkTCPicks holds Multivalued's two picks over transport.LaneTallies to
// the functions they replaced, lane by lane of one inbox of k-lane frames
// (lane l read by transporttest.LaneInbox): the value with ≥ threshold
// support (compared where the old map iteration was deterministic:
// threshold above half the lane's senders) and the most supported value
// with its count.
func checkTCPicks(t *testing.T, in []transport.Message, threshold, k int) {
	t.Helper()
	tallies := make([]transport.Tally, k)
	transport.LaneTallies(in, tallies, transport.AddOption)
	for l, tally := range tallies {
		laneIn := transporttest.LaneInbox(in, k, l)
		if threshold > len(laneIn)/2 {
			var got []byte
			has := false
			for _, s := range tally {
				if s.Count >= threshold {
					got, has = s.Value, true
					break
				}
			}
			want, wantHas := oracleTCMajority(laneIn, threshold)
			if has != wantHas || !bytes.Equal(got, want) {
				t.Fatalf("lane %d/%d, ≥ %d support: got (%q, %v), oracle (%q, %v) on %v", l, k, threshold, got, has, want, wantHas, in)
			}
		}
		var cand transport.Support
		for _, s := range tally {
			if s.Count > cand.Count {
				cand = s
			}
		}
		want, wantCount := oracleTCBest(laneIn)
		if cand.Count != wantCount || !bytes.Equal(cand.Value, want) {
			t.Fatalf("lane %d/%d best: got (%q, %d), oracle (%q, %d) on %v", l, k, cand.Value, cand.Count, want, wantCount, in)
		}
	}
}

func TestTCPicksMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 5000; trial++ {
		k := 1 + trial%6
		pool := transporttest.LanePool(tcPool, k)
		raw := make([]byte, 2*rng.Intn(14))
		rng.Read(raw)
		for i := 1; i < len(raw); i += 2 {
			if rng.Intn(4) > 0 {
				raw[i] = byte(rng.Intn(len(pool))) // mostly well-formed, so counts build up
			}
		}
		for threshold := 1; threshold <= 9; threshold++ {
			checkTCPicks(t, transporttest.Inbox(raw, pool), threshold, k)
		}
	}
}

func FuzzTCPicks(f *testing.F) {
	f.Add([]byte{}, uint8(1), uint8(0))
	f.Add([]byte{0, 3, 1, 3, 2, 5, 3, 5, 3, 3}, uint8(2), uint8(1))
	f.Add([]byte{0, 0xFF, 1, 0xFE, 1, 0, 2, 200, 9, 9, 9, 4, 21, 5, 23}, uint8(1), uint8(3))
	f.Fuzz(func(t *testing.T, raw []byte, threshold, k uint8) {
		lanes := 1 + int(k%6)
		checkTCPicks(t, transporttest.Inbox(raw, transporttest.LanePool(tcPool, lanes)), int(threshold%10), lanes)
	})
}

// TestOptionFrameMatchesOracle: wire.Some/None/Option are byte-for-byte the
// frame Multivalued used to define for itself.
func TestOptionFrameMatchesOracle(t *testing.T) {
	for _, v := range [][]byte{nil, {}, {0}, {1}, []byte("value")} {
		if got, want := wire.Some(v), oracleEncodeTC(v); !bytes.Equal(got, want) {
			t.Fatalf("Some(%q) = %x, oracle %x", v, got, want)
		}
	}
	for _, raw := range append(tcPool, nil, []byte{}) {
		got, ok := wire.Option(raw)
		want, wantOK := oracleDecodeTC(raw)
		if ok != wantOK || !bytes.Equal(got, want) {
			t.Fatalf("Option(%x) = (%x, %v), oracle (%x, %v)", raw, got, ok, want, wantOK)
		}
	}
}

// oracleKingBit is the king's round as Binary read it when it had a body of
// its own, kept verbatim (transport.Bit inlined): of the king's one-byte 0/1
// messages the last one, else 0.
func oracleKingBit(in []transport.Message, king transport.PartyID) byte {
	kingVal := byte(0)
	for _, m := range transport.SentBy(in, king) {
		if len(m.Payload) == 1 && m.Payload[0] <= 1 {
			kingVal = m.Payload[0]
		}
	}
	return kingVal
}

// oracleKingLane reads lane l of a k-lane king's round by the rules alone,
// one lane and one message at a time: a message that is not ⌈k/4⌉ bytes or
// has a non-zero bit above lane k−1 is skipped whole, a lane reading ⊥ or 3
// skips that lane of that message, the last bit left standing counts, and
// no bit at all is 0.
func oracleKingLane(in []transport.Message, king transport.PartyID, k, l int) byte {
	val := byte(0)
	for _, m := range in {
		if m.From != king || len(m.Payload) != (k+3)/4 {
			continue
		}
		digits := make([]byte, 0, 4*len(m.Payload)) // base-4 digits, least significant first
		for _, b := range m.Payload {
			for j := 0; j < 4; j++ {
				digits = append(digits, b%4)
				b /= 4
			}
		}
		if !bytes.Equal(digits[k:], make([]byte, len(digits)-k)) {
			continue
		}
		if digits[l] <= 1 {
			val = digits[l]
		}
	}
	return val
}

func checkKingLanes(t *testing.T, in []transport.Message, king transport.PartyID, k int) {
	t.Helper()
	val, got := bytes.Repeat([]byte{0xEE}, k), make([]byte, k)
	kingLanes(in, king, val, got)
	for l := range val {
		if want := oracleKingLane(in, king, k, l); val[l] != want {
			t.Fatalf("k=%d lane %d: king's value %d, oracle %d on %v", k, l, val[l], want, in)
		}
	}
	if want := oracleKingBit(in, king); k == 1 && val[0] != want {
		t.Fatalf("k=1: king's value %d, Binary's old rule %d on %v", val[0], want, in)
	}
}

// lanePool is what a lanes round can carry at small k: one-lane frames 0,
// 1, ⊥ and 3, padding violations, and multi-byte frames with every lane
// value in them.
var lanePool = [][]byte{
	{0}, {1}, {2}, {3}, {4}, {0x80}, {0x11}, {0x1B}, {0xE4}, {0x44, 0x01}, {0x9C, 0x02}, {0x05, 0x10}, {0xFF, 0xFF},
}

func TestKingLanesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 5000; trial++ {
		raw := make([]byte, 2*rng.Intn(10))
		rng.Read(raw)
		for i := 0; i < len(raw); i += 2 {
			raw[i] = byte(rng.Intn(3)) // few senders, so the king spams
			if rng.Intn(4) > 0 {
				raw[i+1] = byte(rng.Intn(len(lanePool)))
			}
		}
		checkKingLanes(t, transporttest.Inbox(raw, lanePool), rng.Intn(3), 1+trial%8)
	}
}

func FuzzKingLanes(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Add([]byte{1, 1, 1, 2, 1, 0, 1, 3, 2, 1}, uint8(1), uint8(0))
	f.Add([]byte{0, 9, 0, 12, 0, 10, 0, 11, 3, 9}, uint8(0), uint8(4))
	f.Fuzz(func(t *testing.T, raw []byte, king, k uint8) {
		checkKingLanes(t, transporttest.Inbox(raw, lanePool), int(king%8), 1+int(k%8))
	})
}
