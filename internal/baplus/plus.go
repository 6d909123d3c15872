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
	"sort"

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
	seen := supportedValues(in, n-2*t, 2)
	vote := encodeVote(seen)
	in, err = transport.ExchangeAll(env, tag+"/vote", vote)
	if err != nil {
		return nil, false, err
	}
	// Line 3: a ≤ b are the values voted by ≥ n−t parties (≤ 2 exist).
	voted := votedValues(in, n-t)
	var a, b []byte
	aBot, bBot := true, true
	switch len(voted) {
	case 1:
		a, b = voted[0], voted[0]
		aBot, bBot = false, false
	case 2:
		a, b = voted[0], voted[1]
		aBot, bBot = false, false
	}

	// Line 4: try to agree on a.
	out, ok, err := tryAgree(env, tag+"/a", a, aBot)
	if err != nil || ok {
		return out, ok, err
	}
	// Line 5: try to agree on b; otherwise ⊥.
	return tryAgree(env, tag+"/b", b, bBot)
}

// tryAgree runs one "agree then confirm" step of Π_BA+ lines 4–5: BA on the
// candidate value, then binary BA on whether the result matches the
// caller's candidate.
func tryAgree(env transport.Net, tag string, cand []byte, candBot bool) ([]byte, bool, error) {
	agreed, agreedOK, err := ba.Multivalued(env, tag+"/val", encodeOpt(cand, candBot))
	if err != nil {
		return nil, false, err
	}
	val, valBot := decodeOpt(agreed, agreedOK)
	happy := byte(0)
	if !candBot && !valBot && bytes.Equal(val, cand) {
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

// encodeOpt frames a value-or-⊥ for the inner multivalued BA.
func encodeOpt(v []byte, bot bool) []byte {
	if bot {
		return []byte{0}
	}
	w := wire.NewWriter(1 + len(v))
	w.Byte(1)
	w.Raw(v)
	return w.Finish()
}

// decodeOpt unframes the inner BA's output; anything other than a
// well-formed present value is treated as ⊥.
func decodeOpt(raw []byte, ok bool) ([]byte, bool) {
	if !ok || len(raw) < 1 || raw[0] != 1 {
		return nil, true
	}
	return raw[1:], false
}

// supportedValues returns up to max values that at least threshold distinct
// senders sent, sorted ascending for determinism.
func supportedValues(in []transport.Message, threshold, max int) [][]byte {
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

// encodeVote frames VOTE(...), VOTE(v1) or VOTE(v1, v2).
func encodeVote(vals [][]byte) []byte {
	w := wire.NewWriter(16)
	w.Byte(byte(len(vals)))
	for _, v := range vals {
		w.Bytes(v)
	}
	return w.Finish()
}

// votedValues tallies votes (each sender contributes ≤ 2 distinct values)
// and returns the values with at least threshold votes, sorted ascending.
// At most two can exist when threshold ≥ n−t and t < n/3; kept defensive.
func votedValues(in []transport.Message, threshold int) [][]byte {
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

// PlusRounds returns ROUNDS(Π_BA+) in the worst case (both agree-confirm
// stages run) for corruption budget t.
func PlusRounds(t int) int {
	return 2 + 2*(ba.MultivaluedRounds(t)+ba.BinaryRounds(t))
}
