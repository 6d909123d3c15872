package baplus

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"convexagreement/internal/transport"
	"convexagreement/internal/transporttest"
	"convexagreement/internal/wire"
)

// The two functions Plus's picks over a transport.Tally replaced, kept
// verbatim as the oracle: a map[string]int per round (and one more per
// vote), sort.Strings, and a []byte(key) round trip per value.

func oracleSupportedValues(in []transport.Message, threshold, max int) [][]byte {
	counts := make(map[string]int)
	for _, m := range transport.FirstPerSender(in) {
		counts[string(m.Payload)]++
	}
	var out []string
	for s, c := range counts {
		if c >= threshold {
			out = append(out, s)
		}
	}
	sort.Strings(out)
	if len(out) > max {
		out = out[:max]
	}
	vals := make([][]byte, len(out))
	for i, s := range out {
		vals[i] = []byte(s)
	}
	return vals
}

func oracleVotedValues(in []transport.Message, threshold int) [][]byte {
	counts := make(map[string]int)
	for _, m := range transport.FirstPerSender(in) {
		r := wire.NewReader(m.Payload)
		k := r.Byte()
		if r.Err() != nil || k > 2 {
			continue
		}
		unique := make(map[string]bool, 2)
		for i := byte(0); i < k; i++ {
			v := r.Bytes()
			if r.Err() != nil {
				break
			}
			unique[string(v)] = true
		}
		if r.Err() != nil || r.Close() != nil {
			continue
		}
		for s := range unique {
			counts[s]++
		}
	}
	var keys []string
	for s, c := range counts {
		if c >= threshold {
			keys = append(keys, s)
		}
	}
	sort.Strings(keys)
	if len(keys) > 2 {
		keys = keys[:2]
	}
	vals := make([][]byte, len(keys))
	for i, s := range keys {
		vals[i] = []byte(s)
	}
	return vals
}

// votePool is what the vote round can carry: VOTE(), VOTE(v), VOTE(v, w),
// a vote naming one value twice, and the malformed ones — three values, a
// count that overstates, a truncated value, trailing bytes.
var votePool = [][]byte{
	encodeVote(nil), encodeVote([][]byte{[]byte("a")}), encodeVote([][]byte{[]byte("b")}),
	encodeVote([][]byte{[]byte("a"), []byte("b")}), encodeVote([][]byte{[]byte("b"), []byte("c")}),
	encodeVote([][]byte{[]byte("a"), []byte("a")}), encodeVote([][]byte{{}, []byte("a")}),
	encodeVote([][]byte{[]byte("a"), []byte("b"), []byte("c")}),
	{2, 1, 'a'}, {1, 5, 'a'}, append(encodeVote([][]byte{[]byte("a")}), 0), {3},
}

func sameValues(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// checkPlusPicks holds lines 2 and 3 of Plus to the functions they replaced
// on one inbox, read once as a round of raw values and once as a round of
// votes.
func checkPlusPicks(t *testing.T, in []transport.Message, k int) {
	t.Helper()
	var seen transport.Tally
	for _, m := range transport.FirstPerSender(in) {
		seen.Add(m.Payload)
	}
	if got, want := atLeast(seen, k), oracleSupportedValues(in, k, 2); !sameValues(got, want) {
		t.Fatalf("values from ≥ %d: got %q, oracle %q on %v", k, got, want, in)
	}
	if got, want := atLeast(voteTally(in), k), oracleVotedValues(in, k); !sameValues(got, want) {
		t.Fatalf("voted by ≥ %d: got %q, oracle %q on %v", k, got, want, in)
	}
}

func TestPlusPicksMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 5000; trial++ {
		raw := make([]byte, 2*rng.Intn(14))
		rng.Read(raw)
		for i := 1; i < len(raw); i += 2 {
			if rng.Intn(4) > 0 {
				raw[i] = byte(rng.Intn(len(votePool)))
			}
		}
		for k := 1; k <= 9; k++ {
			checkPlusPicks(t, transporttest.Inbox(raw, votePool), k)
		}
	}
}

func FuzzPlusPicks(f *testing.F) {
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{0, 3, 1, 3, 2, 4, 3, 4, 4, 5, 4, 3}, uint8(2))
	f.Add([]byte{0, 7, 1, 8, 2, 9, 3, 10, 4, 0xFF, 5, 0xFE, 6, 200, 1, 2, 3}, uint8(1))
	f.Fuzz(func(t *testing.T, raw []byte, k uint8) {
		checkPlusPicks(t, transporttest.Inbox(raw, votePool), int(k%10))
	})
}
