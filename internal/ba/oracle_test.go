package ba

import (
	"bytes"
	"math/rand"
	"testing"

	"convexagreement/internal/transport"
	"convexagreement/internal/transporttest"
	"convexagreement/internal/wire"
)

// The functions Multivalued's two picks over tcTally replaced, kept verbatim
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

// checkTCPicks holds Multivalued's two picks to the functions they replaced
// on one inbox: the value with ≥ k support (compared where the old map
// iteration was deterministic: k above half the senders) and the most
// supported value with its count.
func checkTCPicks(t *testing.T, in []transport.Message, k int) {
	t.Helper()
	tally := tcTally(in)
	if k > len(transport.FirstPerSender(in))/2 {
		var got []byte
		has := false
		for _, s := range tally {
			if s.Count >= k {
				got, has = s.Value, true
				break
			}
		}
		want, wantHas := oracleTCMajority(in, k)
		if has != wantHas || !bytes.Equal(got, want) {
			t.Fatalf("≥ %d support: got (%q, %v), oracle (%q, %v) on %v", k, got, has, want, wantHas, in)
		}
	}
	var cand transport.Support
	for _, s := range tally {
		if s.Count > cand.Count {
			cand = s
		}
	}
	want, wantCount := oracleTCBest(in)
	if cand.Count != wantCount || !bytes.Equal(cand.Value, want) {
		t.Fatalf("best: got (%q, %d), oracle (%q, %d) on %v", cand.Value, cand.Count, want, wantCount, in)
	}
}

func TestTCPicksMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 5000; trial++ {
		raw := make([]byte, 2*rng.Intn(14))
		rng.Read(raw)
		for i := 1; i < len(raw); i += 2 {
			if rng.Intn(4) > 0 {
				raw[i] = byte(rng.Intn(len(tcPool))) // mostly well-formed, so counts build up
			}
		}
		for k := 1; k <= 9; k++ {
			checkTCPicks(t, transporttest.Inbox(raw, tcPool), k)
		}
	}
}

func FuzzTCPicks(f *testing.F) {
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{0, 3, 1, 3, 2, 5, 3, 5, 3, 3}, uint8(2))
	f.Add([]byte{0, 0xFF, 1, 0xFE, 1, 0, 2, 200, 9, 9, 9}, uint8(1))
	f.Fuzz(func(t *testing.T, raw []byte, k uint8) {
		checkTCPicks(t, transporttest.Inbox(raw, tcPool), int(k%10))
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
