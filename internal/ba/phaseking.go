// Package ba implements the Byzantine Agreement building block Π_BA that the
// paper assumes (Definition 2): a deterministic BA protocol resilient
// against t < n/3 corruptions in the synchronous plain model.
//
// Two protocols are provided:
//
//   - Bits: the Berman–Garay–Perry phase-king protocol (t+1 phases of three
//     rounds, O(n²) messages per phase) on k independent one-bit inputs at
//     once — k instances sharing rounds, kings and messages, two bits of
//     every message each. Binary is the one-lane call.
//   - Multivalued: the Turpin–Coan extension lifting Bits to arbitrary
//     byte-string values in two extra all-to-all rounds, on k independent
//     values at once the same way.
//
// The paper instantiates Π_BA with the Coan–Welch protocol, whose bit
// complexity for κ-bit inputs is O(κ·n²); phase-king + Turpin–Coan costs
// O(κ·n² + n³) instead. The substitution is recorded in DESIGN.md: Π_BA is
// only ever invoked on κ-bit values, single bits or O(log n) independent
// bits, so the difference lands in the additive poly(n, κ) term of every
// theorem and leaves the O(ℓn) headline and all experimental shapes intact.
package ba

import (
	"fmt"

	"convexagreement/internal/transport"
)

// Binary runs one instance of phase-king binary BA: the one-lane call of
// Bits. Every honest party must call it in the same round with the same
// tag. input must be 0 or 1.
//
// Guarantees under t < n/3 (Definition 2): Termination, Agreement, and
// Validity (if all honest parties input b, the output is b). Complexity:
// 3(t+1) rounds, O(n²) one-byte messages per phase.
func Binary(env transport.Net, tag string, input byte) (byte, error) {
	out, err := Bits(env, tag, []byte{input})
	if err != nil {
		return 0, err
	}
	return out[0], nil
}

// Bits runs k = len(lanes) independent instances of phase-king binary BA in
// the rounds of one: lane l of every message is instance l's message, the
// kings are shared, and no lane reads another, so Definition 2 holds for
// every lane exactly as it does for Binary on that lane's inputs. Every
// honest party must call it in the same round with the same tag and the
// same k; each lanes[l] must be 0 or 1. The result is a fresh slice of the
// k agreed bits; lanes is not kept.
//
// Complexity: 3(t+1) rounds whatever k is, O(n²) messages of ⌈k/4⌉ bytes
// per phase (transport.PackLanes; at k = 1 the byte 0, 1 or 2).
func Bits(env transport.Net, tag string, lanes []byte) ([]byte, error) {
	for _, b := range lanes {
		if b > 1 {
			return nil, fmt.Errorf("ba: binary input %d out of range", b)
		}
	}
	n, t, k := env.N(), env.T(), len(lanes)

	// Everything the instance allocates, once: the lane vectors, the vote
	// counts, the three round tags and one send buffer per round of a
	// phase. In-process transports deliver a payload by reference and a
	// receiver may read it until it enters the next round, so a buffer is
	// rewritten only three rounds after it was sent.
	nb := transport.LaneBytes(k)
	buf := make([]byte, 5*k+3*nb)
	take := func(size int) []byte {
		s := buf[:size:size]
		buf = buf[size:]
		return s
	}
	v, prop, d, kingVal, got := take(k), take(k), take(k), take(k), take(k)
	out1, out2, out3 := take(nb), take(nb), take(nb)
	votes := make(transport.LaneVotes, k)
	tag1, tag2, tag3 := tag+"/pk1", tag+"/pk2", tag+"/pk3"

	copy(v, lanes)
	for phase := 0; phase <= t; phase++ {
		king := transport.PartyID(phase % n)

		// Round 1: exchange current values; per lane, a is the majority
		// value and c1 its support. Propose a if it had n−t support, else
		// abstain.
		transport.PackLanes(out1, v)
		in, err := transport.ExchangeAll(env, tag1, out1)
		if err != nil {
			return nil, err
		}
		votes.Count(in)
		for l := range prop {
			prop[l] = transport.LaneBot
			if a, c1 := votes.Majority(l); c1 >= n-t {
				prop[l] = a
			}
		}

		// Round 2: b is the majority proposal and c2 its support; d is b
		// when that support reaches t+1 (at most one such value can have
		// honest backing). A lane with n−t proposal support keeps b, which
		// v holds from here on; the others defer to the king.
		transport.PackLanes(out2, prop)
		in, err = transport.ExchangeAll(env, tag2, out2)
		if err != nil {
			return nil, err
		}
		votes.Count(in)
		for l := range d {
			b, c2 := votes.Majority(l)
			d[l] = transport.LaneBot
			if c2 >= t+1 {
				d[l] = b
			}
			v[l] = transport.LaneBot // defers to the king
			if c2 >= n-t {
				v[l] = b
			}
		}

		// Round 3: the king broadcasts its d; lanes without n−t proposal
		// support take the king's value.
		if env.ID() == king {
			transport.PackLanes(out3, d)
			in, err = transport.ExchangeAll(env, tag3, out3)
		} else {
			in, err = transport.ExchangeNone(env)
		}
		if err != nil {
			return nil, err
		}
		kingLanes(in, king, kingVal, got)
		for l := range v {
			if v[l] == transport.LaneBot {
				v[l] = kingVal[l]
			}
		}
	}
	return v, nil
}

// kingLanes reads the king's round into val, lane by lane: a silent king, a
// king ⊥ or garbage counts as 0; of a spamming king's well-formed bits the
// last one counts (highcostca and bc take a sender's first message). got is
// scratch of val's length.
func kingLanes(in []transport.Message, king transport.PartyID, val, got []byte) {
	clear(val)
	for _, m := range transport.SentBy(in, king) {
		if transport.UnpackLanes(m.Payload, got) {
			for l, bit := range got {
				if bit <= 1 {
					val[l] = bit
				}
			}
		}
	}
}

// BinaryRounds returns ROUNDS_1(Binary) for given t: the fixed number of
// lock-step rounds one instance — of Binary, or of Bits at any number of
// lanes — consumes.
func BinaryRounds(t int) int { return 3 * (t + 1) }
