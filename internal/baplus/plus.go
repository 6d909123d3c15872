// Package baplus implements Section 7 of the paper: Byzantine Agreement
// with the two extra properties the CA construction needs —
//
//   - Intrusion Tolerance (Definition 3): honest parties output an honest
//     party's input or ⊥.
//   - Bounded Pre-Agreement (Definition 4): agreement on ⊥ only happens if
//     fewer than n−2t honest parties share an input.
//
// Plus is the short-message protocol Π_BA+ (Theorem 6); Long is the
// long-message extension Π_ℓBA+ (Theorem 1), which agrees on a κ-bit Merkle
// root of the Reed-Solomon encoding of the value and then disperses the
// value itself with O(ℓn + κ·n²·log n) bits.
package baplus

import (
	"bytes"

	"convexagreement/internal/ba"
	"convexagreement/internal/transport"
	"convexagreement/internal/wire"
)

// Plus runs Π_BA+ on a short value (κ bits in the paper; any byte string
// works). The return convention is (value, true) for a non-⊥ agreement and
// (nil, false) for ⊥. All honest parties must call it in the same round
// with the same tag.
//
// Under t < n/3 it achieves BA plus Intrusion Tolerance and Bounded
// Pre-Agreement, with O(κn²) bits on top of the Π_BA invocations
// (Theorem 6).
func Plus(env transport.Net, tag string, input []byte) ([]byte, bool, error) {
	n, t := env.N(), env.T()

	// Line 1: distribute inputs.
	in, err := transport.ExchangeAll(env, tag+"/dist", input)
	if err != nil {
		return nil, false, err
	}
	// Line 2: vote for every value received from ≥ n−2t parties (at most
	// two such values can exist; kept deterministic and defensive).
	var seen transport.Tally
	for _, m := range transport.FirstPerSender(in) {
		seen.Add(m.Payload)
	}
	in, err = transport.ExchangeAll(env, tag+"/vote", encodeVote(atLeast(seen, n-2*t)))
	if err != nil {
		return nil, false, err
	}
	// Line 3: a ≤ b are the values voted by ≥ n−t parties (≤ 2 exist), ⊥ if
	// none. Framing copies them out of this inbox: tryAgree compares against
	// its candidate after rounds of its own.
	a, b := wire.None(), wire.None()
	if voted := atLeast(voteTally(in), n-t); len(voted) > 0 {
		a = wire.Some(voted[0])
		b = wire.Some(voted[len(voted)-1])
	}

	// Line 4: try to agree on a.
	out, ok, err := tryAgree(env, tag+"/a", a)
	if err != nil || ok {
		return out, ok, err
	}
	// Line 5: try to agree on b; otherwise ⊥.
	return tryAgree(env, tag+"/b", b)
}

// atLeast returns the values of a round counted for at least k parties —
// the two smallest if there are more.
func atLeast(tally transport.Tally, k int) [][]byte {
	var vals [][]byte
	for _, s := range tally {
		if s.Count >= k && len(vals) < 2 {
			vals = append(vals, s.Value)
		}
	}
	return vals
}

// encodeVote frames VOTE(...), VOTE(v1) or VOTE(v1, v2).
func encodeVote(vals [][]byte) []byte {
	w := wire.NewWriter(16)
	w.Byte(byte(len(vals)))
	for _, v := range vals {
		w.Bytes(v)
	}
	return w.Finish()
}

// voteTally counts the vote round: a vote names at most two values and
// counts once for each distinct one; a vote that is truncated, names more
// or has trailing bytes is ignored.
func voteTally(in []transport.Message) transport.Tally {
	var votes transport.Tally
	for _, m := range transport.FirstPerSender(in) {
		r := wire.NewReader(m.Payload)
		var named [2][]byte
		k := int(r.Byte())
		if k > len(named) {
			continue
		}
		for i := 0; i < k; i++ {
			named[i] = r.Bytes()
		}
		if r.Close() != nil {
			continue
		}
		if k == 2 && bytes.Equal(named[0], named[1]) {
			k = 1
		}
		for _, v := range named[:k] {
			votes.Add(v)
		}
	}
	return votes
}

// tryAgree runs one "agree then confirm" step of Π_BA+ lines 4–5: BA on the
// candidate (a framed value or ⊥), then binary BA on whether the result is
// the caller's candidate and a value.
func tryAgree(env transport.Net, tag string, cand []byte) ([]byte, bool, error) {
	// Anything the inner BA settles on other than a well-formed present
	// value is ⊥ (agreed is nil when it settled on nothing).
	agreed, _, err := ba.Multivalued(env, tag+"/val", cand)
	if err != nil {
		return nil, false, err
	}
	val, present := wire.Option(agreed)
	happy := byte(0)
	if present && bytes.Equal(agreed, cand) {
		happy = 1
	}
	confirmed, err := ba.Binary(env, tag+"/confirm", happy)
	if err != nil {
		return nil, false, err
	}
	if confirmed == 1 {
		// Some honest party was happy, so the agreed value is its non-⊥
		// candidate; all honest parties decoded the same val.
		return val, true, nil
	}
	return nil, false, nil
}

// PlusRounds returns ROUNDS(Π_BA+) in the worst case (both agree-confirm
// stages run) for corruption budget t.
func PlusRounds(t int) int {
	return 2 + 2*(ba.MultivaluedRounds(t)+ba.BinaryRounds(t))
}
