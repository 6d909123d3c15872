// Package aa implements synchronous Approximate Agreement (AA), the
// relaxation of Convex Agreement from which the convex-validity requirement
// historically originates (Dolev, Lynch, Pinter, Stark, Weihl [16]; §1.1 of
// the paper): honest outputs must lie in the honest inputs' hull and be
// within a pre-agreed ε of each other — but need not be equal.
//
// The protocol is the classic iterated trim-and-midpoint rule: each round
// every party broadcasts its current value, discards the t lowest and t
// highest values received, and moves to the midpoint of the rest. For
// t < n/3 each round provably halves the honest values' diameter while
// staying inside the honest hull:
//
//   - the trimmed minimum lies in [h_min, h_(t+1)] and the trimmed maximum
//     in [h_(n-2t), h_max] (at most t byzantine values survive trimming on
//     either side, and all honest values are present);
//   - those two windows are disjoint (t+1 ≤ n−2t ⇔ n > 3t), so any two
//     honest midpoints differ by at most half the honest diameter.
//
// AA exists in this repository as the comparison point the paper's
// introduction draws: it converges fast but pays Θ(ℓn²) bits per round and
// only ever reaches ε-agreement, while Convex Agreement reaches exact
// agreement in O(ℓn + poly(n, κ)) bits (experiment E12).
package aa

import (
	"fmt"
	"math/big"
	"sort"

	"convexagreement/internal/transport"
)

// Run executes synchronous Approximate Agreement. All honest parties must
// call it in the same round with the same tag, diameterBound and epsilon;
// diameterBound must be a public upper bound on the spread of honest
// inputs, and epsilon ≥ 1 the agreement tolerance (values are integers; a
// caller needing finer resolution scales its fixed-point representation).
//
// Guarantees for t < n/3: Termination after ⌈log₂(diameterBound/ε)⌉+2
// rounds; every output lies in the honest inputs' hull; honest outputs are
// pairwise within epsilon.
func Run(env transport.Net, tag string, input, diameterBound, epsilon *big.Int) (*big.Int, error) {
	if input == nil || diameterBound == nil || epsilon == nil {
		return nil, fmt.Errorf("aa: nil argument")
	}
	if epsilon.Sign() <= 0 || diameterBound.Sign() < 0 {
		return nil, fmt.Errorf("aa: need epsilon ≥ 1 and diameterBound ≥ 0")
	}
	t := env.T()
	v := new(big.Int).Set(input)
	var fan []transport.Packet // every round's broadcast, refilled
	for round := 0; round < Rounds(diameterBound, epsilon); round++ {
		in, err := transport.ExchangeAll(env, tag+"/aa-val", v.Bytes(), &fan)
		if err != nil {
			return nil, err
		}
		received := make([]*big.Int, 0, env.N())
		for f := transport.FirstsOf(in); f.Next(); {
			received = append(received, new(big.Int).SetBytes(f.Message().Payload))
		}
		if len(received) <= 2*t {
			return nil, fmt.Errorf("aa: only %d values received, need > %d", len(received), 2*t)
		}
		sort.Slice(received, func(i, j int) bool { return received[i].Cmp(received[j]) < 0 })
		trimmed := received[t : len(received)-t]
		lo, hi := trimmed[0], trimmed[len(trimmed)-1]
		// v := ⌊(lo + hi)/2⌋ — the midpoint of the trimmed range.
		v = new(big.Int).Add(lo, hi)
		v.Rsh(v, 1)
	}
	return v, nil
}

// Rounds returns the number of iterations Run performs for the given
// public diameter bound and tolerance: ⌈log₂(D/ε)⌉ plus two slack rounds
// absorbing integer-floor effects.
func Rounds(diameterBound, epsilon *big.Int) int {
	ratio := new(big.Int).Div(diameterBound, epsilon)
	rounds := 2
	for ratio.Sign() > 0 {
		ratio.Rsh(ratio, 1)
		rounds++
	}
	return rounds
}
