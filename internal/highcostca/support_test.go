package highcostca

import (
	"math/big"
	"math/rand"
	"testing"

	"convexagreement/internal/transport"
	"convexagreement/internal/transporttest"
)

// oracleNatWithSupport is the function natAtLeast over natTally replaced,
// kept verbatim: payloads counted as trimmed bytes in a map[string]*int,
// the smallest supported natural by (length, bytes).
func oracleNatWithSupport(in []transport.Message, threshold int) *big.Int {
	counts := make(map[string]*int)
	for _, m := range transport.FirstPerSender(in) {
		payload := m.Payload
		for len(payload) > 0 && payload[0] == 0 {
			payload = payload[1:]
		}
		c := counts[string(payload)]
		if c == nil {
			c = new(int)
			counts[string(payload)] = c
		}
		*c++
	}
	best, found := "", false
	for s, c := range counts {
		if *c < threshold {
			continue
		}
		if !found || len(s) < len(best) || (len(s) == len(best) && s < best) {
			best, found = s, true
		}
	}
	if !found {
		return nil
	}
	return new(big.Int).SetBytes([]byte(best))
}

// refNatWithSupport is the implementation before that one: every payload
// through SetBytes → Bytes → string, every supported value back through
// SetBytes. Numbers, not encodings — the oracle of the oracle.
func refNatWithSupport(in []transport.Message, threshold int) *big.Int {
	counts := make(map[string]int)
	for _, m := range transport.FirstPerSender(in) {
		counts[string(decodeNat(m.Payload).Bytes())]++
	}
	var best *big.Int
	for s, c := range counts {
		if c < threshold {
			continue
		}
		v := new(big.Int).SetBytes([]byte(s))
		if best == nil || v.Cmp(best) < 0 {
			best = v
		}
	}
	return best
}

// natPool: non-canonical encodings (leading zero bytes, the empty payload
// and all-zero payloads for 0), values of equal and of different lengths —
// {1, 0} sorts below {2} as bytes and above it as a number.
var natPool = [][]byte{{}, {0}, {0, 0}, {1}, {0, 1}, {2}, {1, 0}, {0, 1, 0}, {0xFF}, {1, 0xFF}, {0, 0, 1, 0xFF}, {2, 0, 0}}

func checkNatAtLeast(t *testing.T, in []transport.Message, k int) {
	t.Helper()
	var w Work
	var got *big.Int
	if nat, ok := natAtLeast(w.count(in), k); ok {
		got = new(big.Int).SetBytes(nat)
	}
	wants := map[string]*big.Int{
		"oracle":    oracleNatWithSupport(in, k),
		"reference": refNatWithSupport(in, k),
		"runRef's":  natAtLeastRef(natTally(in), k),
	}
	for name, want := range wants {
		if (got == nil) != (want == nil) || (got != nil && got.Cmp(want) != 0) {
			t.Fatalf("≥ %d support: got %v, %s %v on %v", k, got, name, want, in)
		}
	}
}

// TestNatWithSupportMatchesReference: same winner (or same nil) on inboxes with
// repeated senders, several supported values and every threshold.
func TestNatWithSupportMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 3000; trial++ {
		raw := make([]byte, 2*rng.Intn(14))
		rng.Read(raw)
		for i := 1; i < len(raw); i += 2 {
			if rng.Intn(4) > 0 {
				raw[i] = byte(rng.Intn(len(natPool)))
			}
		}
		for k := 1; k <= 9; k++ {
			checkNatAtLeast(t, transporttest.Inbox(raw, natPool), k)
		}
	}
}

func FuzzNatAtLeast(f *testing.F) {
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{0, 3, 1, 4, 2, 5, 3, 6, 4, 5, 5, 6}, uint8(2))
	f.Add([]byte{0, 0xFF, 1, 0xFE, 2, 0, 3, 200, 0, 0, 1}, uint8(1))
	f.Fuzz(func(t *testing.T, raw []byte, k uint8) {
		checkNatAtLeast(t, transporttest.Inbox(raw, natPool), int(k%10))
	})
}
