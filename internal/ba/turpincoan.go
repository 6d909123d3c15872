package ba

import (
	"convexagreement/internal/transport"
	"convexagreement/internal/wire"
)

// TurpinCoan runs the two rounds of the Turpin–Coan reduction [49] on k =
// len(inputs) independent byte-string lanes at once, with no binary BA after
// them: each round carries one option frame per lane (wire.Lanes), and lane l
// reads only lane l's counts, so every lane is the one-lane reduction on that
// lane's inputs. All honest parties must call it in the same round with the
// same tag and the same k; values may be of different lengths (byzantine
// parties may send anything).
//
// Per lane l it returns the lane's candidate and grade: cands[l] is
// wire.Some(cand) when cand, the lane's most supported value of round 2 (the
// smallest on a tie), had t+1 support, else nil (⊥); g[l] is 1 when cand had
// n−t support. It runs on w (nil: a fresh set), and cands and g are views
// of w valid until w's next use — cands are copies out of the inbox, since
// the caller's BA rounds follow, and a Bits instance on w leaves them be.
// Under t < n/3:
//
//   - Candidate lemma: if any honest party has g[l] = 1, every honest party
//     holds the same cands[l], a value. (Round 1 gives every honest party at
//     most one value to re-send, the same one: two values with n−t support
//     at two honest parties would need 2(n−2t) > n−t honest senders. An
//     honest g = 1 means n−2t ≥ t+1 honest parties re-sent it, and any other
//     value has at most the t corrupt senders.)
//   - Validity: if every honest party inputs v, every honest party has
//     g[l] = 1 and cands[l] = wire.Some(v); the empty value is a value,
//     distinct from ⊥.
//   - A present cands[l] was re-sent by an honest party, so it is the input
//     of n−2t ≥ t+1 honest parties.
//
// Multivalued BA is this plus Bits on g, reading a lane that agreed 0 as ⊥
// (the Turpin–Coan "default"); Π_BA+ confirms on g directly
// (baplus.plus). Complexity: 2 all-to-all rounds of k option frames (O(ℓn²)
// bits for ℓ-bit values, a repeated lane costing a byte).
func TurpinCoan(env transport.Net, tag string, inputs [][]byte, w *Work) (cands [][]byte, g []byte, err error) {
	if w == nil {
		w = fresh()
	}
	n, t, k := env.N(), env.T(), len(inputs)
	tags := tag + "/tc1" + tag + "/tc2"
	// Each round's frames, and then the candidates, are appended into a
	// buffer the set keeps; a grown buffer leaves its old array, which the
	// frames carved so far point into, as it is.
	frames, buf := resize(&w.frames, k), w.opts[:0]
	for l, v := range inputs {
		mark := len(buf)
		buf = wire.AppendSome(buf, v)
		frames[l] = buf[mark:]
	}

	// Round 1: distribute inputs; per lane, find the value with ≥ n−t
	// support (more than half the parties, so at most one).
	in, err := transport.ExchangeAll(env, tags[:len(tags)/2], w.Lanes(frames), &w.fan)
	if err != nil {
		return nil, nil, err
	}
	tallies := w.Tally(in, k, transport.AddOption)
	// Round 2: re-distribute that value (or ⊥). A value with ≥ t+1 support
	// here is backed by at least one honest party that saw n−t support in
	// round 1 — at most one such value exists per lane. Round 1's frames
	// went out copied into their send buffer, so the frame buffer is free.
	buf = buf[:0]
	for l, tally := range tallies {
		mark := len(buf)
		buf = wire.AppendNone(buf)
		for _, s := range tally {
			if s.Count >= n-t {
				buf = wire.AppendSome(buf[:mark], s.Value)
				break
			}
		}
		frames[l] = buf[mark:]
	}
	w.opts = buf
	in, err = transport.ExchangeAll(env, tags[len(tags)/2:], w.Lanes(frames), &w.fan)
	if err != nil {
		return nil, nil, err
	}
	tallies = w.Tally(in, k, transport.AddOption)
	cands, g, buf = resize(&w.cands, k), resize(&w.g, k), w.candBuf[:0]
	for l, tally := range tallies {
		var cand transport.Support
		for _, s := range tally {
			if s.Count > cand.Count {
				cand = s
			}
		}
		cands[l], g[l] = nil, 0
		if cand.Count >= t+1 {
			mark := len(buf)
			buf = wire.AppendSome(buf, cand.Value) // a copy: this inbox ends with the next round
			cands[l] = buf[mark:len(buf):len(buf)]
		}
		if cand.Count >= n-t {
			g[l] = 1
		}
	}
	w.candBuf = buf
	return cands, g, nil
}
