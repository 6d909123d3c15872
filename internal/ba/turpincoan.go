package ba

import (
	"bytes"

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

	// Round 1: distribute inputs; find the value with ≥ n−t support (more
	// than half the parties, so at most one).
	in, err := transport.ExchangeAll(env, tag+"/tc1", wire.Some(input))
	if err != nil {
		return nil, false, err
	}
	// Round 2: re-distribute that value (or ⊥). A value with ≥ t+1 support
	// here is backed by at least one honest party that saw n−t support in
	// round 1 — at most one such value exists.
	second := wire.None()
	for _, s := range tcTally(in) {
		if s.Count >= n-t {
			second = wire.Some(s.Value)
			break
		}
	}
	in, err = transport.ExchangeAll(env, tag+"/tc2", second)
	if err != nil {
		return nil, false, err
	}
	// cand is the most supported non-⊥ value, the smallest on a tie.
	var cand transport.Support
	for _, s := range tcTally(in) {
		if s.Count > cand.Count {
			cand = s
		}
	}
	value := bytes.Clone(cand.Value) // borrowed from this inbox; Binary's rounds outlive it
	g := byte(0)
	if cand.Count >= n-t {
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
	if cand.Count >= t+1 {
		return value, true, nil
	}
	// Unreachable for honest parties when the protocol's preconditions
	// hold; returning ok=false keeps the function total.
	return nil, false, nil
}

// tcTally counts the non-⊥ values of a Turpin–Coan round.
func tcTally(in []transport.Message) transport.Tally {
	var tally transport.Tally
	for _, m := range transport.FirstPerSender(in) {
		if v, ok := wire.Option(m.Payload); ok {
			tally.Add(v)
		}
	}
	return tally
}

// MultivaluedRounds returns ROUNDS(Multivalued) for given t.
func MultivaluedRounds(t int) int { return 2 + BinaryRounds(t) }
