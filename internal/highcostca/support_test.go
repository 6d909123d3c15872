package highcostca

import (
	"math/big"
	"math/rand"
	"testing"

	"convexagreement/internal/transport"
)

// refNatWithSupport is the implementation natWithSupport replaced: every
// payload through SetBytes → Bytes → string, every supported value back
// through SetBytes. It is the oracle for the byte-keyed version.
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

// TestNatWithSupportMatchesReference: same winner (or same nil) on inboxes
// with non-canonical encodings (leading zero bytes, the empty payload and
// all-zero payloads for 0), repeated senders, several supported values of
// equal and of different lengths, and every threshold.
func TestNatWithSupportMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pool := [][]byte{{}, {0}, {0, 0}, {1}, {0, 1}, {2}, {1, 0}, {0, 1, 0}, {0xFF}, {1, 0xFF}, {0, 0, 1, 0xFF}, {2, 0, 0}}
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(10)
		var in []transport.Message
		for from := 0; from < n; from++ {
			for k := rng.Intn(3); k >= 0; k-- { // only the first per sender counts
				in = append(in, transport.Message{From: transport.PartyID(from), Payload: pool[rng.Intn(len(pool))]})
			}
		}
		for threshold := 1; threshold <= n+1; threshold++ {
			got, want := natWithSupport(in, threshold), refNatWithSupport(in, threshold)
			if (got == nil) != (want == nil) || (got != nil && got.Cmp(want) != 0) {
				t.Fatalf("trial %d threshold %d: got %v, reference %v", trial, threshold, got, want)
			}
		}
	}
}
