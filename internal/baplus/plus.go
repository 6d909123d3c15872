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
// value itself with O(ℓn + κ·n²·log n) bits — or, for a value no longer
// than a root, agrees on the value itself. Both run on one batched body:
// plus runs k instances of Π_BA+ in the rounds of one, and LongLanes k
// instances of Π_ℓBA+ of which it delivers one; Plus and Long are their
// one-lane calls.
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
	out, err := plus(env, tag, [][]byte{input})
	if err != nil {
		return nil, false, err
	}
	v, ok := wire.Option(out[0])
	return v, ok, nil
}

// plus runs k = len(inputs) independent instances of Π_BA+ in the rounds
// of one, and lines 4 and 5 of each — "try to agree on a, else on b" — in
// the rounds of one stage: b's attempt reads nothing from a's outcome, so
// the 2k candidates a₁ b₁ a₂ b₂ … are the lanes of one ba.Multivalued and
// one confirming ba.Bits, and lane j's result is a_j if its confirmation
// agreed, else b_j if its confirmation agreed, else ⊥ — what running the
// two attempts one after the other returns. Lane j's result is an option
// frame (wire.Option reads nil as ⊥). All honest parties must call it in the
// same round with the same tag and the same k.
func plus(env transport.Net, tag string, inputs [][]byte) ([][]byte, error) {
	n, t, k := env.N(), env.T(), len(inputs)
	frames := make([][]byte, 2*k)
	tallies := make([]transport.Tally, k)

	// Line 1: distribute inputs.
	for j, v := range inputs {
		frames[j] = wire.Some(v)
	}
	in, err := transport.ExchangeAll(env, tag+"/dist", wire.Lanes(frames[:k]))
	if err != nil {
		return nil, err
	}
	// Line 2: per lane, vote for every value received from ≥ n−2t parties
	// (at most two such values can exist; kept deterministic and defensive).
	transport.LaneTallies(in, tallies, transport.AddOption)
	for j, tally := range tallies {
		frames[j] = encodeVote(atLeast(tally, n-2*t))
	}
	in, err = transport.ExchangeAll(env, tag+"/vote", wire.Lanes(frames[:k]))
	if err != nil {
		return nil, err
	}
	// Line 3: a_j ≤ b_j are the values voted by ≥ n−t parties in lane j
	// (≤ 2 exist), ⊥ if none. Framing copies them out of this inbox: they
	// are compared against the agreed values rounds later.
	transport.LaneTallies(in, tallies, addVote)
	for j, tally := range tallies {
		a, b := wire.None(), wire.None()
		if voted := atLeast(tally, n-t); len(voted) > 0 {
			a = wire.Some(voted[0])
			b = wire.Some(voted[len(voted)-1])
		}
		frames[2*j], frames[2*j+1] = a, b
	}

	// Lines 4–5: BA on every candidate (a framed value or ⊥), then binary BA
	// on whether the result is the caller's candidate and a value. Anything
	// the inner BA settles on other than a well-formed present value is ⊥.
	agreed, err := ba.Multivalued(env, tag+"/val", frames)
	if err != nil {
		return nil, err
	}
	happy := make([]byte, 2*k)
	for i, cand := range frames {
		got, ok := wire.Option(agreed[i])
		if _, present := wire.Option(got); ok && present && bytes.Equal(got, cand) {
			happy[i] = 1
		}
		agreed[i] = got
	}
	confirmed, err := ba.Bits(env, tag+"/confirm", happy)
	if err != nil {
		return nil, err
	}
	// A confirmed lane had some honest party happy, so the agreed value is
	// its non-⊥ candidate; all honest parties hold the same frame.
	out := make([][]byte, k)
	for j := range out {
		if confirmed[2*j] == 1 {
			out[j] = agreed[2*j]
		} else if confirmed[2*j+1] == 1 {
			out[j] = agreed[2*j+1]
		}
	}
	return out, nil
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

// addVote is the vote round's rule for one lane: a vote names at most two
// values and counts once for each distinct one; a vote that is truncated,
// names more or has trailing bytes counts for nothing.
func addVote(votes *transport.Tally, vote []byte) {
	r := wire.NewReader(vote)
	var named [2][]byte
	k := int(r.Byte())
	if k > len(named) {
		return
	}
	for i := 0; i < k; i++ {
		named[i] = r.Bytes()
	}
	if r.Close() != nil {
		return
	}
	if k == 2 && bytes.Equal(named[0], named[1]) {
		k = 1
	}
	for _, v := range named[:k] {
		votes.Add(v)
	}
}

// PlusRounds returns ROUNDS(Π_BA+) for corruption budget t, at any number of
// lanes: the two rounds of lines 1–2 and one agree-then-confirm stage, 2 +
// 38 at t = 5.
func PlusRounds(t int) int {
	return 2 + ba.MultivaluedRounds(t) + ba.BinaryRounds(t)
}
