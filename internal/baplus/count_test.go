package baplus_test

import (
	"bytes"
	"math/rand"
	"testing"

	"convexagreement/internal/baplus"
	"convexagreement/internal/rs"
	"convexagreement/internal/sim"
	"convexagreement/internal/testutil"
)

// TestNestedLanesEncodeOnce counts the stripes one FINDPREFIX-shaped call
// encodes: three lanes ending at a third, two thirds and all of a 64 KiB
// window, at n = 7. The parties share lane 0 only, or lanes 0 and 1, so j*
// is the narrowest lane, or the middle one, whose shares the dispersal
// sends. Each party encodes the widest lane's stripes plus, for each
// narrower lane, the stripes that hold the two lengths and its last one —
// nothing for j*, and nothing near a second lane in full.
func TestNestedLanesEncodeOnce(t *testing.T) {
	const n, tc, size = 7, 2, 64 << 10
	codec, err := rs.SharedCodec(n, n-tc)
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, size)
	rand.New(rand.NewSource(18)).Read(body)
	ends := []int{8 * size / 3, 16 * size / 3, 8 * size}
	stripes := func(bits int) int { return codec.ShareSize(4+(bits+7)/8) / 2 }
	head := codec.ShareSize(4) / 2
	bound := stripes(ends[2]) + 2*(head+1)
	for agreed := range 2 {
		sets := make([]baplus.Buffers, n)
		res, err := testutil.Run(sim.Config{N: n, T: tc}, nil,
			func(env *sim.Env) (int, error) {
				// Every party's window past lane j* is its own.
				p := bytes.Clone(body)
				p[ends[agreed]/8+1] = byte(env.ID())
				lane, v, err := baplus.LongLanes(env, "c", marshalled(p), ends, &sets[env.ID()])
				e := ends[agreed]
				if err == nil && (lane != agreed || len(v) != 4+(e+7)/8 || !bytes.Equal(v[4:4+e/8], body[:e/8])) {
					t.Errorf("party %d: lane %d agreed, want lane %d and its bits", env.ID(), lane, agreed)
				}
				return lane, err
			})
		if err != nil {
			t.Fatal(err)
		}
		for id := range res.Outputs {
			if got := sets[id].Encoded(); got > bound {
				t.Errorf("j*=%d: party %d encoded %d stripes, want at most %d (the widest lane's %d, and %d per narrower lane)",
					agreed, id, got, bound, stripes(ends[2]), head+1)
			}
		}
	}
}
