// Package ba implements the Byzantine Agreement building block Π_BA that the
// paper assumes (Definition 2): a deterministic BA protocol resilient
// against t < n/3 corruptions in the synchronous plain model.
//
// Two protocols are provided:
//
//   - Binary: the Berman–Garay–Perry phase-king protocol for one-bit inputs
//     (t+1 phases of three rounds, O(n²) messages per phase).
//   - Multivalued: the Turpin–Coan extension lifting Binary to arbitrary
//     byte-string values in two extra all-to-all rounds.
//
// The paper instantiates Π_BA with the Coan–Welch protocol, whose bit
// complexity for κ-bit inputs is O(κ·n²); phase-king + Turpin–Coan costs
// O(κ·n² + n³) instead. The substitution is recorded in DESIGN.md: Π_BA is
// only ever invoked on κ-bit or 1-bit values, so the difference lands in the
// additive poly(n, κ) term of every theorem and leaves the O(ℓn) headline
// and all experimental shapes intact.
package ba

import (
	"fmt"

	"convexagreement/internal/transport"
)

// noVote is the ⊥ of the proposal round and of the king's round; bits go on
// the wire as one byte, 0 or 1 (transport.Bit).
const noVote byte = 2

// Binary runs one instance of phase-king binary BA. Every honest party must
// call it in the same round with the same tag. input must be 0 or 1.
//
// Guarantees under t < n/3 (Definition 2): Termination, Agreement, and
// Validity (if all honest parties input b, the output is b). Complexity:
// 3(t+1) rounds, O(n²) one-byte messages per phase.
func Binary(env transport.Net, tag string, input byte) (byte, error) {
	if input > 1 {
		return 0, fmt.Errorf("ba: binary input %d out of range", input)
	}
	n, t := env.N(), env.T()
	v := input
	for phase := 0; phase <= t; phase++ {
		king := transport.PartyID(phase % n)

		// Round 1: exchange current values; a is the majority value and c1
		// its support.
		in, err := transport.ExchangeAll(env, tag+"/pk1", []byte{v})
		if err != nil {
			return 0, err
		}
		a, c1 := transport.MajorityBit(in)

		// Round 2: propose a if it had n−t support, else abstain. b is the
		// majority proposal and c2 its support; d is b when that support
		// reaches t+1 (at most one such value can have honest backing).
		prop := noVote
		if c1 >= n-t {
			prop = a
		}
		in, err = transport.ExchangeAll(env, tag+"/pk2", []byte{prop})
		if err != nil {
			return 0, err
		}
		b, c2 := transport.MajorityBit(in)
		d := noVote
		if c2 >= t+1 {
			d = b
		}

		// Round 3: the king broadcasts its d; parties without n−t proposal
		// support defer to the king. A silent king, a king ⊥ (noVote) or
		// garbage counts as 0; of a spamming king's well-formed bits the
		// last one counts (highcostca and bc take a sender's first message).
		if env.ID() == king {
			in, err = transport.ExchangeAll(env, tag+"/pk3", []byte{d})
		} else {
			in, err = transport.ExchangeNone(env)
		}
		if err != nil {
			return 0, err
		}
		kingVal := byte(0)
		for _, m := range transport.SentBy(in, king) {
			if bit, ok := transport.Bit(m.Payload); ok {
				kingVal = bit
			}
		}
		if c2 >= n-t {
			v = b
		} else {
			v = kingVal
		}
	}
	return v, nil
}

// BinaryRounds returns ROUNDS_1(Binary) for given t: the fixed number of
// lock-step rounds one instance consumes.
func BinaryRounds(t int) int { return 3 * (t + 1) }
