package core_test

import (
	"math/big"
	"math/rand"
	"testing"

	"convexagreement/internal/bitstr"
	"convexagreement/internal/channet"
	"convexagreement/internal/core"
	"convexagreement/internal/transport"
)

// BenchmarkFindPrefixBlocks_l2p21_n7 times one FINDPREFIXBLOCKS per
// iteration at the shape of the benchmark's long_input workload: n = 7
// parties over channet (no sockets, so what is timed is the value plane and
// Π_ℓBA+), ℓ = 2²¹ bits rounded up to n² blocks as Π_ℕ rounds it, inputs
// that share their top half.
func BenchmarkFindPrefixBlocks_l2p21_n7(b *testing.B) {
	const n, tc = 7, 2
	const blocks = n * n
	const width = (1<<21 + blocks - 1) / blocks * blocks
	rng := rand.New(rand.NewSource(1))
	top := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), width/2))
	top.Lsh(top, width-width/2)
	inputs := make([]bitstr.String, n)
	for i := range inputs {
		v := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), width-width/2))
		inputs[i] = bitstr.MustFromBig(v.Or(v, top), width)
	}
	fns := make([]func(transport.Net) error, n)
	for i := range fns {
		v := inputs[i]
		fns[i] = func(net transport.Net) error {
			_, err := core.FindPrefixBlocks(net, "fpb", v, blocks)
			return err
		}
	}
	b.SetBytes(width / 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hub, err := channet.NewHub(n, tc)
		if err != nil {
			b.Fatal(err)
		}
		if err := hub.Run(fns); err != nil {
			b.Fatal(err)
		}
	}
}
