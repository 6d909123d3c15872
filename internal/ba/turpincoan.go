package ba

import (
	"convexagreement/internal/transport"
	"convexagreement/internal/wire"
)

// Multivalued runs Byzantine Agreement on arbitrary byte-string values via
// the Turpin–Coan extension [49] over Binary. All honest parties must call
// it in the same round with the same tag; values may be of different
// lengths (byzantine parties may send anything).
//
// The return convention is (value, true) when agreement settled on a
// concrete value, and (nil, false) when the underlying binary BA decided
// that no value had sufficient pre-agreement — the Turpin–Coan "default"
// outcome. Guarantees under t < n/3:
//
//   - Termination and Agreement always (including agreement on the ok flag).
//   - Validity: if all honest parties input v, the output is (v, true) —
//     note the empty slice is a legitimate value, distinct from ok=false.
//
// Complexity: 2 all-to-all rounds of ℓ-bit values (O(ℓn²) bits) plus one
// Binary instance.
func Multivalued(env transport.Net, tag string, input []byte) ([]byte, bool, error) {
	n, t := env.N(), env.T()

	// Round 1: distribute inputs; find the value with ≥ n−t support.
	in, err := transport.ExchangeAll(env, tag+"/tc1", encodeTC(input))
	if err != nil {
		return nil, false, err
	}
	maj, hasMaj := tcMajority(in, n-t)

	// Round 2: re-distribute the majority candidate (or ⊥). A value with
	// ≥ t+1 support here is backed by at least one honest party that saw
	// n−t support in round 1 — at most one such value exists.
	var second []byte
	if hasMaj {
		second = encodeTC(maj)
	} else {
		second = encodeTCBot()
	}
	in, err = transport.ExchangeAll(env, tag+"/tc2", second)
	if err != nil {
		return nil, false, err
	}
	cand, candCount := tcBest(in)
	g := byte(0)
	if candCount >= n-t {
		g = 1
	}

	// Binary agreement on whether a sufficiently supported value exists.
	bit, err := Binary(env, tag+"/tcba", g)
	if err != nil {
		return nil, false, err
	}
	if bit == 0 {
		return nil, false, nil
	}
	// bit == 1 implies some honest party had g = 1, hence ≥ n−2t ≥ t+1
	// honest parties broadcast cand in round 2 and every honest party sees
	// it with ≥ t+1 support; cand is unique at that threshold.
	if candCount >= t+1 {
		return cand, true, nil
	}
	// Unreachable for honest parties when the protocol's preconditions
	// hold; returning ok=false keeps the function total.
	return nil, false, nil
}

// encodeTC frames a present value: 0x01 || value.
func encodeTC(v []byte) []byte {
	w := wire.NewWriter(1 + len(v))
	w.Byte(1)
	w.Raw(v)
	return w.Finish()
}

// encodeTCBot frames the ⊥ marker.
func encodeTCBot() []byte {
	return []byte{0}
}

// decodeTC parses a framed value; ok=false for ⊥ or garbage.
func decodeTC(raw []byte) ([]byte, bool) {
	if len(raw) < 1 || raw[0] != 1 {
		return nil, false
	}
	return raw[1:], true
}

// tcMajority returns the value appearing with at least `threshold` support
// among the first message of each sender.
func tcMajority(in []transport.Message, threshold int) ([]byte, bool) {
	counts := make(map[string]int)
	for _, m := range transport.FirstPerSender(in) {
		if v, ok := decodeTC(m.Payload); ok {
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

// tcBest returns the most supported non-⊥ value of round 2 and its count,
// breaking ties deterministically by byte order.
func tcBest(in []transport.Message) ([]byte, int) {
	counts := make(map[string]int)
	for _, m := range transport.FirstPerSender(in) {
		if v, ok := decodeTC(m.Payload); ok {
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

// MultivaluedRounds returns ROUNDS(Multivalued) for given t.
func MultivaluedRounds(t int) int { return 2 + BinaryRounds(t) }
