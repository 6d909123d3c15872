package ba

import (
	"convexagreement/internal/transport"
	"convexagreement/internal/wire"
)

// Multivalued runs k = len(inputs) independent instances of Byzantine
// Agreement on arbitrary byte-string values via the Turpin–Coan extension
// [49] over Bits, in the rounds of one: each of the two Turpin–Coan rounds
// carries one option frame per lane (wire.Lanes), the k binary agreements
// are one Bits instance, and lane l reads only lane l's counts, so every
// lane is the one-lane protocol on that lane's inputs. All honest parties
// must call it in the same round with the same tag and the same k; values
// may be of different lengths (byzantine parties may send anything).
//
// The result holds lane l's outcome as an option frame: wire.Some(v) when
// agreement settled on a concrete value v, nil — which wire.Option reads as
// ⊥ — when the binary BA decided that no value had sufficient
// pre-agreement, the Turpin–Coan "default" outcome. Guarantees per lane
// under t < n/3:
//
//   - Termination and Agreement always (including agreement on ⊥).
//   - Validity: if all honest parties input v, the output is Some(v) — note
//     the empty slice is a legitimate value, distinct from ⊥.
//
// Complexity: 2 all-to-all rounds of k option frames (O(ℓn²) bits for
// ℓ-bit values, a repeated lane costing a byte) plus one Bits instance.
func Multivalued(env transport.Net, tag string, inputs [][]byte) ([][]byte, error) {
	n, t, k := env.N(), env.T(), len(inputs)
	frames := make([][]byte, k)
	for l, v := range inputs {
		frames[l] = wire.Some(v)
	}

	// Round 1: distribute inputs; per lane, find the value with ≥ n−t
	// support (more than half the parties, so at most one).
	in, err := transport.ExchangeAll(env, tag+"/tc1", wire.Lanes(frames))
	if err != nil {
		return nil, err
	}
	tallies := make([]transport.Tally, k)
	transport.LaneTallies(in, tallies, transport.AddOption)
	// Round 2: re-distribute that value (or ⊥). A value with ≥ t+1 support
	// here is backed by at least one honest party that saw n−t support in
	// round 1 — at most one such value exists per lane.
	for l, tally := range tallies {
		frames[l] = wire.None()
		for _, s := range tally {
			if s.Count >= n-t {
				frames[l] = wire.Some(s.Value)
				break
			}
		}
	}
	in, err = transport.ExchangeAll(env, tag+"/tc2", wire.Lanes(frames))
	if err != nil {
		return nil, err
	}
	transport.LaneTallies(in, tallies, transport.AddOption)
	// cand is the lane's most supported non-⊥ value, the smallest on a tie;
	// g says whether it had n−t support.
	out := make([][]byte, k)
	g := make([]byte, k)
	for l, tally := range tallies {
		var cand transport.Support
		for _, s := range tally {
			if s.Count > cand.Count {
				cand = s
			}
		}
		if cand.Count >= t+1 {
			out[l] = wire.Some(cand.Value) // a copy: this inbox ends with Bits' first round
		}
		if cand.Count >= n-t {
			g[l] = 1
		}
	}

	// Binary agreement, per lane, on whether a sufficiently supported value
	// exists.
	bits, err := Bits(env, tag+"/tcba", g)
	if err != nil {
		return nil, err
	}
	for l, bit := range bits {
		// bit == 1 implies some honest party had g = 1, hence ≥ n−2t ≥ t+1
		// honest parties broadcast cand in round 2 and every honest party
		// sees it with ≥ t+1 support; cand is unique at that threshold. A
		// lane that agreed 1 without it is unreachable for honest parties
		// when the protocol's preconditions hold; ⊥ keeps the function total.
		if bit == 0 {
			out[l] = nil
		}
	}
	return out, nil
}

// MultivaluedRounds returns ROUNDS(Multivalued) for given t, at any number
// of lanes.
func MultivaluedRounds(t int) int { return 2 + BinaryRounds(t) }
