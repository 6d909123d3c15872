package aa_test

import (
	"math/big"
	"math/rand"
	"testing"

	"convexagreement/internal/aa"
	"convexagreement/internal/sim"
)

func BenchmarkAA_n7_eps1_D1M(b *testing.B) {
	const n, tc = 7, 2
	rng := rand.New(rand.NewSource(1))
	inputs := make([]*big.Int, n)
	for i := range inputs {
		inputs[i] = big.NewInt(rng.Int63n(1 << 20))
	}
	d, eps := big.NewInt(1<<20), big.NewInt(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := sim.Collect(sim.Config{N: n, T: tc}, nil,
			func(env *sim.Env) (*big.Int, error) {
				return aa.Run(env, "aa", inputs[env.ID()], d, eps)
			})
		if err != nil {
			b.Fatal(err)
		}
	}
}
