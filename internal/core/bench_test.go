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

// BenchmarkPiZChannet is one 64-bit Π_ℤ agreement per op at n = 16 over
// channet, the shape of the benchmark's mux_* workloads (inputs sharing
// their top 48 bits) without sockets or a mux: each party runs every op on
// one core.Buffers, Reset between ops, as a Session runs its instances.
// None of the containers of its phase-kings, Turpin–Coan rounds and Π_BA+
// stages is allocated per op — they live in the set's work set — so an op
// allocates the agreement's round tags, the prefix search's splits and
// closures, the output and the n packets channet's missing broadcast fast
// path builds every round (most of the bytes). 1902 allocs/op here; 6390
// when each instance built its own containers. ci.sh pins its allocs/op
// with the other whole-run rows.
func BenchmarkPiZChannet(b *testing.B) {
	const n = 16
	rng := rand.New(rand.NewSource(1))
	top := rng.Int63n(1<<15) << 48
	hub, err := channet.NewHub(n, (n-1)/3)
	if err != nil {
		b.Fatal(err)
	}
	fns := make([]func(transport.Net) error, n)
	for i := range fns {
		input := big.NewInt(top | rng.Int63n(1<<48))
		fns[i] = func(net transport.Net) error {
			var bufs core.Buffers
			for r := 0; r < b.N; r++ {
				if _, err := core.PiZ(net, "ca", input, &bufs); err != nil {
					return err
				}
				bufs.Reset()
			}
			return nil
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := hub.Run(fns); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkPiZLongChannet is one long Π_ℤ agreement per op at n = 7 over
// channet, long_input's shape scaled down: 2¹⁸-bit inputs sharing their top
// half, so Π_ℕ takes the block path (FINDPREFIXBLOCKS, Π_ℓBA+'s dispersal,
// HIGHCOSTCA on the block-size estimate and on ADDLASTBLOCK's block). Each
// party runs every op on one core.Buffers, Reset between ops, as a Session
// runs its instances. ci.sh pins its allocs/op with the other whole-run
// rows.
func BenchmarkPiZLongChannet(b *testing.B) {
	const n, width = 7, 1 << 18
	rng := rand.New(rand.NewSource(1))
	top := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), width/2))
	top.Lsh(top, width/2)
	hub, err := channet.NewHub(n, (n-1)/3)
	if err != nil {
		b.Fatal(err)
	}
	fns := make([]func(transport.Net) error, n)
	for i := range fns {
		input := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), width/2))
		input.Or(input, top)
		fns[i] = func(net transport.Net) error {
			var bufs core.Buffers
			for r := 0; r < b.N; r++ {
				if _, err := core.PiZ(net, "ca", input, &bufs); err != nil {
					return err
				}
				bufs.Reset()
			}
			return nil
		}
	}
	b.SetBytes(width / 8)
	b.ReportAllocs()
	b.ResetTimer()
	if err := hub.Run(fns); err != nil {
		b.Fatal(err)
	}
}
