package baplus_test

import (
	"math/rand"
	"testing"

	"convexagreement/internal/baplus"
	"convexagreement/internal/sim"
	"convexagreement/internal/testutil"
	"convexagreement/internal/transport"
)

// benchLBA times one full simulated instance per iteration.
func benchLBA(b *testing.B, n, tc, valueLen int, proto runner) {
	b.Helper()
	value := make([]byte, valueLen)
	rand.New(rand.NewSource(1)).Read(value)
	b.SetBytes(int64(valueLen))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := testutil.Run(sim.Config{N: n, T: tc}, nil,
			func(env *sim.Env) (bool, error) {
				_, ok, err := proto(env, "b", value)
				return ok, err
			})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlus_n7(b *testing.B) {
	benchLBA(b, 7, 2, 32, func(env transport.Net, tag string, in []byte) ([]byte, bool, error) {
		return baplus.Plus(env, tag, in)
	})
}

func BenchmarkLong_n7_64KiB(b *testing.B) {
	benchLBA(b, 7, 2, 64<<10, baplus.Long)
}

func BenchmarkLongNaive_n7_64KiB(b *testing.B) {
	benchLBA(b, 7, 2, 64<<10, baplus.LongNaive)
}

// TestRoundBounds checks the exported worst-case round formulas against
// reality: actual rounds never exceed them.
func TestRoundBounds(t *testing.T) {
	for _, n := range []int{4, 7, 10} {
		tc := (n - 1) / 3
		inputs := make([][]byte, n)
		for i := range inputs {
			inputs[i] = []byte{byte(i % 2)} // mixed → worst-case path likely
		}
		res, err := testutil.Run(sim.Config{N: n, T: tc}, nil,
			func(env *sim.Env) (bool, error) {
				_, ok, err := baplus.Long(env, "p", inputs[env.ID()])
				return ok, err
			})
		if err != nil {
			t.Fatal(err)
		}
		// ROUNDS(Π_ℓBA+) is Π_BA+ plus the two dispersal rounds.
		if bound := baplus.PlusRounds(tc) + 2; res.Report.Rounds > bound {
			t.Errorf("n=%d: %d rounds exceeds worst-case bound %d", n, res.Report.Rounds, bound)
		}
	}
}
