package baplus_test

import (
	"bytes"
	"math/rand"
	"testing"

	"convexagreement/internal/baplus"
	"convexagreement/internal/hashing"
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

// TestRoundBounds checks the exported round formula against reality.
// ROUNDS(Π_ℓBA+) is Π_BA+ plus the two dispersal rounds, which run exactly
// when the lane that agreed carried a root, not a value short enough to be
// agreed on as itself: a and b share one stage, so the count depends neither
// on which candidate was confirmed nor on the number of lanes — it is
// PlusRounds(t) + 2 for a dispersed value, PlusRounds(t) for a short one or
// ⊥, every time.
func TestRoundBounds(t *testing.T) {
	long := bytes.Repeat([]byte("x"), 2*hashing.Size)
	for _, n := range []int{4, 7, 10} {
		tc := (n - 1) / 3
		for _, k := range []int{1, 3} {
			for _, c := range []struct {
				name      string
				input     func(id int) []byte
				dispersed bool
			}{
				{"mixed", func(id int) []byte { return []byte{byte(id % 2)} }, false},
				{"shared", func(id int) []byte { return []byte("v") }, false},
				{"solo", func(id int) []byte { return []byte{byte(id)} }, false},
				{"shared-long", func(id int) []byte { return long }, true},
				{"solo-long", func(id int) []byte { return append(long[:len(long):len(long)], byte(id)) }, false},
			} {
				res, err := testutil.Run(sim.Config{N: n, T: tc}, nil,
					func(env *sim.Env) (bool, error) {
						lane, _, err := baplus.LongLanes(env, "p", k, func(j int) []byte { return append(c.input(env.ID()), byte(j)) })
						return lane >= 0, err
					})
				if err != nil {
					t.Fatal(err)
				}
				want := baplus.PlusRounds(tc)
				if c.dispersed {
					want += 2
				}
				if res.Report.Rounds != want {
					t.Errorf("n=%d k=%d %s: %d rounds, want %d", n, k, c.name, res.Report.Rounds, want)
				}
			}
		}
	}
}
