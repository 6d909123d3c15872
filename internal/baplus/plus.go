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
	out, err := plus(env, tag, [][]byte{input}, nil)
	if err != nil {
		return nil, false, err
	}
	v, ok := wire.Option(out[0])
	return v, ok, nil
}

// plus runs k = len(inputs) independent instances of Π_BA+ in the rounds
// of one, and lines 4 and 5 of each — "try to agree on a, else on b" — in
// the rounds of one stage: b's attempt reads nothing from a's outcome, so
// the 2k candidates a₁ b₁ a₂ b₂ … are the lanes of one ba.TurpinCoan and
// one confirming ba.Bits, and lane j's result is a_j if its confirmation
// agreed, else b_j if its confirmation agreed, else ⊥ — what running the
// two attempts one after the other returns. Each attempt runs one
// phase-king, not two: Turpin–Coan's own binary BA on its grade is dropped,
// and the grade becomes a conjunct of the confirmation's input (PROTOCOLS.md,
// deviation "one confirming BA"). Lane j's result is an option frame
// (wire.Option reads nil as ⊥). All honest parties must call it in the same
// round with the same tag and the same k.
//
// It runs on b's work set (nil: a fresh set): the results are views of it,
// valid until its next use.
func plus(env transport.Net, tag string, inputs [][]byte, b *Buffers) ([][]byte, error) {
	if b == nil {
		b = fresh()
	}
	n, t, k := env.N(), env.T(), len(inputs)
	w := &b.work
	// Each round's lane frames are written into one buffer, rewritten
	// round by round: a round's frames go out copied into a send buffer.
	frames, buf := resize(&b.frames, 2*k), b.frameBuf[:0]

	// Line 1: distribute inputs.
	for j, v := range inputs {
		mark := len(buf)
		buf = wire.AppendSome(buf, v)
		frames[j] = buf[mark:]
	}
	in, err := transport.ExchangeAll(env, tag+"/dist", w.Lanes(frames[:k]), w.Fan())
	if err != nil {
		return nil, err
	}
	// Line 2: per lane, vote for every value received from ≥ n−2t parties
	// (at most two such values can exist; kept deterministic and defensive).
	buf = buf[:0]
	for j, tally := range w.Tally(in, k, transport.AddOption) {
		mark := len(buf)
		b.voted = atLeast(b.voted[:0], tally, n-2*t)
		buf = appendVote(buf, b.voted)
		frames[j] = buf[mark:]
	}
	in, err = transport.ExchangeAll(env, tag+"/vote", w.Lanes(frames[:k]), w.Fan())
	if err != nil {
		return nil, err
	}
	// Line 3: a_j ≤ b_j are the values voted by ≥ n−t parties in lane j
	// (≤ 2 exist), ⊥ if none. Framing copies them out of this inbox: they
	// are compared against the agreed values rounds later.
	buf = buf[:0]
	for j, tally := range w.Tally(in, k, addVote) {
		b.voted = atLeast(b.voted[:0], tally, n-t)
		voted := b.voted
		for i := 2 * j; i < 2*j+2; i++ {
			mark := len(buf)
			switch {
			case len(voted) == 0:
				buf = wire.AppendNone(buf)
			case i == 2*j:
				buf = wire.AppendSome(buf, voted[0])
			default:
				buf = wire.AppendSome(buf, voted[len(voted)-1])
			}
			frames[i] = buf[mark:]
		}
	}
	b.frameBuf = buf

	// Lines 4–5: Turpin–Coan on every candidate (a framed value or ⊥), then
	// one binary BA on whether Turpin–Coan graded its candidate n−t, the
	// candidate is a value, and it is the caller's own. Anything other than a
	// well-formed present value is ⊥.
	cands, g, err := ba.TurpinCoan(env, tag+"/val", frames, w)
	if err != nil {
		return nil, err
	}
	happy := resize(&b.happy, 2*k)
	for i, frame := range frames {
		cand, ok := wire.Option(cands[i])
		happy[i] = 0
		if _, present := wire.Option(cand); g[i] == 1 && ok && present && bytes.Equal(cand, frame) {
			happy[i] = 1
		}
		cands[i] = cand
	}
	confirmed, err := ba.Bits(env, tag+"/confirm", happy, w)
	if err != nil {
		return nil, err
	}
	// A confirmed lane had some honest party happy, so some honest party
	// graded it n−t: every honest party holds the same candidate, that
	// party's non-⊥ frame.
	out := resize(&b.agreed, k)
	for j := range out {
		out[j] = nil
		if confirmed[2*j] == 1 {
			out[j] = cands[2*j]
		} else if confirmed[2*j+1] == 1 {
			out[j] = cands[2*j+1]
		}
	}
	return out, nil
}

// atLeast appends to vals the values of a round counted for at least k
// parties — the two smallest if there are more.
func atLeast(vals [][]byte, tally transport.Tally, k int) [][]byte {
	for _, s := range tally {
		if s.Count >= k && len(vals) < 2 {
			vals = append(vals, s.Value)
		}
	}
	return vals
}

// appendVote appends the frame VOTE(...), VOTE(v1) or VOTE(v1, v2) to dst.
func appendVote(dst []byte, vals [][]byte) []byte {
	dst = append(dst, byte(len(vals)))
	for _, v := range vals {
		dst = wire.AppendBytes(dst, v)
	}
	return dst
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
// lanes: the two rounds of lines 1–2, Turpin–Coan's two and one confirming
// phase-king, 4 + 18 at t = 5.
func PlusRounds(t int) int {
	return 4 + ba.BinaryRounds(t)
}
