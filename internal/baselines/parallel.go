package baselines

import (
	"fmt"
	"math/big"

	"convexagreement/internal/sessmux"
	"convexagreement/internal/transport"
)

// BroadcastCAParallel is BroadcastCA with its n broadcast instances
// composed in parallel (sessmux.Parallel): one instance per sender, all
// sharing physical rounds. Communication is unchanged (Θ(ℓn²) for the n
// ℓ-bit broadcasts) but the round complexity drops from O(n) sequential
// broadcasts to the rounds of a single one — the E11 ablation measures the
// gap.
func BroadcastCAParallel(env transport.Net, tag string, input *big.Int) (*big.Int, error) {
	if input == nil || input.Sign() < 0 {
		return nil, fmt.Errorf("baselines: input must be a natural number, got %v", input)
	}
	n, t := env.N(), env.T()
	results := make([]*big.Int, n)
	fns := make([]func(net transport.Net) error, n)
	for s := range fns {
		fns[s] = func(net transport.Net) (err error) {
			results[s], err = view(net, fmt.Sprintf("%s/bcp%d", tag, s), s, input)
			return err
		}
	}
	if err := sessmux.Parallel(env, fns); err != nil {
		return nil, err
	}
	views := make([]*big.Int, 0, n)
	for _, v := range results {
		if v != nil {
			views = append(views, v)
		}
	}
	return TrimmedMedian(views, n, t)
}
