// Package baselines implements the comparison protocols the paper's
// introduction measures its contribution against.
//
// BroadcastCA is the "straightforward approach" of §1: every party
// broadcasts its input via a (communication-efficient, extension-style)
// Byzantine Broadcast, giving all honest parties an identical view of the n
// claimed inputs, and a deterministic trimming rule then picks a common
// output inside the honest hull. Even with hash-based extension broadcasts,
// the n parallel ℓ-bit broadcasts cost Θ(ℓn²) bits — the gap the paper
// closes to O(ℓn).
package baselines

import (
	"fmt"
	"math/big"
	"sort"

	"convexagreement/internal/bc"
	"convexagreement/internal/transport"
)

// BroadcastCA runs the broadcast-based CA baseline. All honest parties must
// call it in the same round with the same tag and non-negative inputs.
//
// Each of the n broadcast instances costs one ℓn dissemination round plus
// one Π_ℓBA+ instance (O(ℓn + κn²·log n) bits), for a total of
// O(ℓn² + n·poly(n, κ)) bits and O(n²) rounds — quadratic in n in the
// ℓ-term where the paper's protocol is linear.
func BroadcastCA(env transport.Net, tag string, input *big.Int) (*big.Int, error) {
	if input == nil || input.Sign() < 0 {
		return nil, fmt.Errorf("baselines: input must be a natural number, got %v", input)
	}
	n, t := env.N(), env.T()
	views := make([]*big.Int, 0, n)
	for s := 0; s < n; s++ {
		v, err := view(env, fmt.Sprintf("%s/bc%d", tag, s), s, input)
		if err != nil {
			return nil, err
		}
		if v != nil {
			views = append(views, v)
		}
	}
	return TrimmedMedian(views, n, t)
}

// view runs sender s's broadcast and reads the delivered value as a natural.
// nil means sender s (necessarily byzantine) failed its broadcast: all
// honest parties skip it consistently.
func view(env transport.Net, tag string, s transport.PartyID, input *big.Int) (*big.Int, error) {
	v, ok, err := bc.Broadcast(env, tag, s, input.Bytes())
	if err != nil || !ok {
		return nil, err
	}
	return new(big.Int).SetBytes(v), nil
}

// TrimmedMedian applies the deterministic decision rule to the common view:
// with len(views) = (n−t)+k values of which at most k+t... — precisely, at
// most views−(n−t) ≤ t values can be byzantine, so after sorting, every
// index in [k, len−1−k] holds a value inside the honest hull; the middle
// index is used. It fails if fewer than n−t values are present (impossible
// after honest broadcasts).
func TrimmedMedian(views []*big.Int, n, t int) (*big.Int, error) {
	if len(views) < n-t {
		return nil, fmt.Errorf("baselines: only %d broadcast values, need %d", len(views), n-t)
	}
	sorted := make([]*big.Int, len(views))
	copy(sorted, views)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Cmp(sorted[j]) < 0 })
	return sorted[(len(sorted)-1)/2], nil
}
