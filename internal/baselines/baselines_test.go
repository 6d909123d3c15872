package baselines_test

import (
	"math/big"
	"math/rand"
	"testing"

	"convexagreement/internal/adversary"
	"convexagreement/internal/baplus"
	"convexagreement/internal/baselines"
	"convexagreement/internal/sim"
	"convexagreement/internal/testutil"
)

func TestBroadcastCAIdenticalInputs(t *testing.T) {
	for _, n := range []int{1, 4, 7} {
		tc := (n - 1) / 3
		inputs := make([]*big.Int, n)
		for i := range inputs {
			inputs[i] = big.NewInt(777)
		}
		res, err := testutil.Run(sim.Config{N: n, T: tc}, nil,
			func(env *sim.Env) (*big.Int, error) {
				return baselines.BroadcastCA(env, "bc", inputs[env.ID()])
			})
		if err != nil {
			t.Fatal(err)
		}
		out, err := testutil.AgreeBig(res)
		if err != nil {
			t.Fatal(err)
		}
		if out.Int64() != 777 {
			t.Errorf("n=%d: output %v", n, out)
		}
	}
}

func TestBroadcastCAConvexValidityUnderAttack(t *testing.T) {
	for _, strat := range adversary.Catalog() {
		strat := strat
		t.Run(strat.Name, func(t *testing.T) {
			n, tc := 7, 2
			rng := rand.New(rand.NewSource(21))
			corrupt := map[int]sim.Behavior{1: strat.Build(rng.Int63()), 5: strat.Build(rng.Int63())}
			inputs := make([]*big.Int, n)
			var honest []*big.Int
			for i := range inputs {
				inputs[i] = big.NewInt(int64(10000 + rng.Intn(500)))
				if _, bad := corrupt[i]; !bad {
					honest = append(honest, inputs[i])
				}
			}
			res, err := testutil.Run(sim.Config{N: n, T: tc}, corrupt,
				func(env *sim.Env) (*big.Int, error) {
					return baselines.BroadcastCA(env, "bc", inputs[env.ID()])
				})
			if err != nil {
				t.Fatal(err)
			}
			out, err := testutil.AgreeBig(res)
			if err != nil {
				t.Fatal(err)
			}
			if err := testutil.HullCheck(out, honest); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestBroadcastCAGhostExtremes(t *testing.T) {
	n, tc := 7, 2
	ghost := func(v *big.Int) sim.Behavior {
		return testutil.Ghost(func(env *sim.Env) error {
			_, err := baselines.BroadcastCA(env, "bc", v)
			return err
		})
	}
	corrupt := map[int]sim.Behavior{
		0: ghost(big.NewInt(0)),
		6: ghost(new(big.Int).Lsh(big.NewInt(1), 90)),
	}
	inputs := make([]*big.Int, n)
	var honest []*big.Int
	for i := range inputs {
		inputs[i] = big.NewInt(int64(500 + i))
		if _, bad := corrupt[i]; !bad {
			honest = append(honest, inputs[i])
		}
	}
	res, err := testutil.Run(sim.Config{N: n, T: tc}, corrupt,
		func(env *sim.Env) (*big.Int, error) {
			return baselines.BroadcastCA(env, "bc", inputs[env.ID()])
		})
	if err != nil {
		t.Fatal(err)
	}
	out, err := testutil.AgreeBig(res)
	if err != nil {
		t.Fatal(err)
	}
	if err := testutil.HullCheck(out, honest); err != nil {
		t.Fatal(err)
	}
}

func TestTrimmedMedianRule(t *testing.T) {
	mk := func(vals ...int64) []*big.Int {
		out := make([]*big.Int, len(vals))
		for i, v := range vals {
			out[i] = big.NewInt(v)
		}
		return out
	}
	// n=4, t=1: four views, one possibly byzantine extreme.
	got, err := baselines.TrimmedMedian(mk(1000000, 5, 7, 6), 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Sorted views are {5, 6, 7, 1000000}; the rule picks index (4−1)/2 = 1,
	// inside the honest hull whichever single view is byzantine.
	if got.Int64() != 6 {
		t.Errorf("median = %v, want 6", got)
	}
	if _, err := baselines.TrimmedMedian(mk(1, 2), 4, 1); err == nil {
		t.Error("too few views accepted")
	}
}

func TestBAOnlyIsInadequateForMixedInputs(t *testing.T) {
	// The motivating observation of the paper: plain long-message BA (Π_ℓBA+
	// on the inputs' bytes, no convex validity) on honestly mixed sensor
	// readings gives no meaningful output (⊥ here) and no range guarantee,
	// while CA always lands in the honest hull. (With identical inputs BA
	// is fine.)
	n, tc := 7, 2
	inputs := make([]*big.Int, n)
	for i := range inputs {
		inputs[i] = big.NewInt(int64(1000 + i)) // all distinct
	}
	type r struct {
		val int64
		ok  bool
	}
	res, err := testutil.Run(sim.Config{N: n, T: tc}, nil,
		func(env *sim.Env) (r, error) {
			v, ok, err := baplus.Long(env, "ba", inputs[env.ID()].Bytes())
			if err != nil {
				return r{}, err
			}
			if !ok {
				return r{ok: false}, nil
			}
			return r{val: new(big.Int).SetBytes(v).Int64(), ok: true}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	agreed, err := testutil.AgreeValue(res)
	if err != nil {
		t.Fatal(err)
	}
	if agreed.ok {
		t.Logf("BA settled on %d (honest input) — allowed but rare", agreed.val)
	}
}
