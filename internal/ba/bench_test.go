package ba_test

import (
	"fmt"
	"testing"

	"convexagreement/internal/ba"
	"convexagreement/internal/channet"
	"convexagreement/internal/sim"
	"convexagreement/internal/testutil"
	"convexagreement/internal/transport"
)

func BenchmarkBinary_n7(b *testing.B) {
	const n, tc = 7, 2
	for i := 0; i < b.N; i++ {
		_, err := testutil.Run(sim.Config{N: n, T: tc}, nil,
			func(env *sim.Env) (byte, error) {
				return ba.Binary(env, "b", byte(int(env.ID())%2), nil)
			})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMultivalued_n7_32B(b *testing.B) {
	const n, tc = 7, 2
	value := make([]byte, 32)
	for i := 0; i < b.N; i++ {
		_, err := testutil.Run(sim.Config{N: n, T: tc}, nil,
			func(env *sim.Env) (bool, error) {
				out, err := multivalued(env, "mv", [][]byte{value})
				return out != nil && out[0] != nil, err
			})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBinaryChannet is one phase-king instance per op, all n parties,
// back to back on one in-process hub, each party on one ba.Work it keeps
// across ops as a session keeps its set across agreements: what the
// protocol layer itself allocates in its 3(t+1) rounds with no wire under
// it — per party the instance's round tags, one string, and nothing for its
// lane vectors, vote counts and send buffers, which are the set's, nor per
// round; the rest is the hub's copies and channet's lack of a broadcast
// fast path — at n = 7, and at n = 16 (mux_closed's shape). ci.sh pins
// both rows' allocs/op with -guard-allocs.
func BenchmarkBinaryChannet(b *testing.B) {
	for _, n := range []int{7, 16} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			hub, err := channet.NewHub(n, (n-1)/3)
			if err != nil {
				b.Fatal(err)
			}
			fns := make([]func(net transport.Net) error, n)
			for i := range fns {
				fns[i] = func(net transport.Net) error {
					var w ba.Work
					lane := []byte{byte(net.ID() % 2)}
					for r := 0; r < b.N; r++ {
						if _, err := ba.Bits(net, "b", lane, &w); err != nil {
							return err
						}
					}
					return nil
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			if err := hub.Run(fns); err != nil {
				b.Fatal(err)
			}
		})
	}
}
