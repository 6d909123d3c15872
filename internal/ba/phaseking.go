// Package ba implements the Byzantine Agreement building block Π_BA that the
// paper assumes (Definition 2): a deterministic BA protocol resilient
// against t < n/3 corruptions in the synchronous plain model.
//
// Two building blocks are provided:
//
//   - Bits: the Berman–Garay–Perry phase-king protocol (t+1 phases of three
//     rounds, O(n²) messages per phase) on k independent one-bit inputs at
//     once — k instances sharing rounds, kings and messages, two bits of
//     every message each. Binary is the one-lane call.
//   - TurpinCoan: the two all-to-all rounds of the Turpin–Coan extension on
//     k independent byte-string values at once, returning each lane's
//     candidate and grade. Multivalued BA is TurpinCoan followed by Bits on
//     the grades. TurpinCoan's one caller, Π_BA+, skips that Bits instance
//     and folds the grade into its confirming one (baplus.plus).
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
// Bits, on w (nil: a fresh set). Every honest party must call it in the
// same round with the same tag. input must be 0 or 1.
//
// Guarantees under t < n/3 (Definition 2): Termination, Agreement, and
// Validity (if all honest parties input b, the output is b). Complexity:
// 3(t+1) rounds, O(n²) one-byte messages per phase.
func Binary(env transport.Net, tag string, input byte, w *Work) (byte, error) {
	out, err := Bits(env, tag, []byte{input}, w)
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
// same k; each lanes[l] must be 0 or 1. It runs on w (nil: a fresh set),
// and the result, the k agreed bits, is a view of w valid until w's next
// use; lanes is not kept.
//
// Complexity: 3(t+1) rounds whatever k is, O(n²) messages of ⌈k/4⌉ bytes
// per phase (transport.PackLanes; at k = 1 the byte 0, 1 or 2).
func Bits(env transport.Net, tag string, lanes []byte, w *Work) ([]byte, error) {
	for _, b := range lanes {
		if b > 1 {
			return nil, fmt.Errorf("ba: binary input %d out of range", b)
		}
	}
	if w == nil {
		w = fresh()
	}
	n, t, k := env.N(), env.T(), len(lanes)

	// The lane vectors and the vote counts are w's; what the instance
	// allocates itself is the three round tags, in one string.
	vecs := resize(&w.bits, 5*k)
	copy(vecs, lanes)
	v, prop, d, kingVal, got := vecs[:k:k], vecs[k:2*k:2*k], vecs[2*k:3*k:3*k], vecs[3*k:4*k:4*k], vecs[4*k:]
	votes := resize(&w.votes, k)
	tags := tag + "/pk1" + tag + "/pk2" + tag + "/pk3"
	tag1, tag2, tag3 := tags[:len(tags)/3], tags[len(tags)/3:2*len(tags)/3], tags[2*len(tags)/3:]

	for phase := 0; phase <= t; phase++ {
		king := transport.PartyID(phase % n)

		// Round 1: exchange current values; per lane, a is the majority
		// value and c1 its support. Propose a if it had n−t support, else
		// abstain.
		in, err := transport.ExchangeAll(env, tag1, w.pack(v), &w.fan)
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
		in, err = transport.ExchangeAll(env, tag2, w.pack(prop), &w.fan)
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
			in, err = transport.ExchangeAll(env, tag3, w.pack(d), &w.fan)
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
