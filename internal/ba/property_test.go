package ba_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"convexagreement/internal/adversary"
	"convexagreement/internal/ba"
	"convexagreement/internal/sim"
	"convexagreement/internal/testutil"
)

// TestBinaryPropertyRandomized drives phase-king through testing/quick:
// random n, corruption placement, strategy mix, and inputs — Agreement must
// always hold and Validity must hold whenever honest inputs pre-agree.
func TestBinaryPropertyRandomized(t *testing.T) {
	f := func(seed int64) bool { return lanesProperty(t, seed, 1) }
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestBitsPropertyRandomized is the same property lane by lane: 2–22 lanes
// per instance, each pre-agreed or mixed on its own coin.
func TestBitsPropertyRandomized(t *testing.T) {
	f := func(seed int64) bool { return lanesProperty(t, seed, 2+int(uint64(seed)%21)) }
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// lanesProperty runs one random k-lane instance (Binary itself at k = 1)
// and reports whether Definition 2 held on every lane.
func lanesProperty(t *testing.T, seed int64, k int) bool {
	strategies := adversary.Catalog()
	rng := rand.New(rand.NewSource(seed))
	n := 4 + rng.Intn(9)
	tc := (n - 1) / 3
	numCorrupt := rng.Intn(tc + 1)
	corrupt := map[int]sim.Behavior{}
	for len(corrupt) < numCorrupt {
		corrupt[rng.Intn(n)] = strategies[rng.Intn(len(strategies))].Build(rng.Int63())
	}
	inputs := make([][]byte, n)
	for i := range inputs {
		inputs[i] = make([]byte, k)
	}
	pre := make([]bool, k)
	preBit := make([]byte, k)
	for l := range pre {
		pre[l], preBit[l] = rng.Intn(2) == 0, byte(rng.Intn(2))
		for i := range inputs {
			inputs[i][l] = preBit[l]
			if !pre[l] {
				inputs[i][l] = byte(rng.Intn(2))
			}
		}
	}
	res, err := testutil.Run(sim.Config{N: n, T: tc}, corrupt,
		func(env *sim.Env) (string, error) {
			if k == 1 {
				out, err := ba.Binary(env, "ba", inputs[env.ID()][0], nil)
				return string([]byte{out}), err
			}
			out, err := ba.Bits(env, "ba", inputs[env.ID()], nil)
			return string(out), err
		})
	if err != nil {
		t.Logf("seed %d: %v", seed, err)
		return false
	}
	out, err := testutil.AgreeValue(res)
	if err != nil {
		t.Logf("seed %d: agreement violated: %v", seed, err)
		return false
	}
	if len(out) != k {
		return false
	}
	for l := range pre {
		if out[l] > 1 {
			return false
		}
		if pre[l] && out[l] != preBit[l] {
			t.Logf("seed %d: lane %d: validity violated (%d vs %d)", seed, l, out[l], preBit[l])
			return false
		}
	}
	return true
}
