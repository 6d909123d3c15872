package core_test

import (
	"math/big"
	"math/rand"
	"testing"

	"convexagreement/internal/core"
	"convexagreement/internal/sim"
	"convexagreement/internal/testutil"
)

// TestFixedLengthCAQuickWidths sweeps random widths through the full
// protocol: CA properties for widths from 1 bit to several hundred.
func TestFixedLengthCAQuickWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 10; trial++ {
		width := 1 + rng.Intn(300)
		n := 4 + rng.Intn(4)
		tc := (n - 1) / 3
		bound := new(big.Int).Lsh(big.NewInt(1), uint(width))
		inputs := make([]*big.Int, n)
		for i := range inputs {
			inputs[i] = new(big.Int).Rand(rng, bound)
		}
		res, err := testutil.Run(sim.Config{N: n, T: tc}, nil,
			func(env *sim.Env) (*big.Int, error) {
				return core.FixedLengthCA(env, "ca", width, inputs[env.ID()])
			})
		if err != nil {
			t.Fatalf("width=%d n=%d: %v", width, n, err)
		}
		out, err := testutil.AgreeBig(res)
		if err != nil {
			t.Fatal(err)
		}
		if err := testutil.HullCheck(out, inputs); err != nil {
			t.Fatalf("width=%d: %v", width, err)
		}
	}
}
