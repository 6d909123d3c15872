package highcostca_test

import (
	"math/big"
	"math/rand"
	"testing"

	"convexagreement/internal/highcostca"
	"convexagreement/internal/sim"
)

func BenchmarkHighCostCA_n7_4Kib(b *testing.B) {
	const n, tc = 7, 2
	rng := rand.New(rand.NewSource(2))
	bound := new(big.Int).Lsh(big.NewInt(1), 4096)
	inputs := make([]*big.Int, n)
	for i := range inputs {
		inputs[i] = new(big.Int).Rand(rng, bound)
	}
	b.SetBytes(4096 / 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := sim.Collect(sim.Config{N: n, T: tc}, nil,
			func(env *sim.Env) (*big.Int, error) {
				out, err := highcostca.Run(env, "hc", inputs[env.ID()].Bytes(), nil)
				return new(big.Int).SetBytes(out), err
			})
		if err != nil {
			b.Fatal(err)
		}
	}
}
