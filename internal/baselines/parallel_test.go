package baselines_test

import (
	"math/big"
	"math/rand"
	"testing"

	"convexagreement/internal/adversary"
	"convexagreement/internal/baselines"
	"convexagreement/internal/sim"
	"convexagreement/internal/testutil"
)

func TestParallelBroadcastCAMatchesGuarantees(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 5; trial++ {
		n := 4 + rng.Intn(6)
		tc := (n - 1) / 3
		inputs := make([]*big.Int, n)
		for i := range inputs {
			inputs[i] = big.NewInt(int64(rng.Intn(1 << 20)))
		}
		res, err := sim.Collect(sim.Config{N: n, T: tc}, nil,
			func(env *sim.Env) (*big.Int, error) {
				return baselines.BroadcastCAParallel(env, "bcp", inputs[env.ID()])
			})
		if err != nil {
			t.Fatal(err)
		}
		out, err := testutil.AgreeBig(res)
		if err != nil {
			t.Fatal(err)
		}
		if err := testutil.HullCheck(out, inputs); err != nil {
			t.Fatal(err)
		}
	}
}

func TestParallelBroadcastCAUnderAdversaries(t *testing.T) {
	for _, strat := range adversary.Catalog() {
		strat := strat
		t.Run(strat.Name, func(t *testing.T) {
			n, tc := 7, 2
			corrupt := map[int]sim.Behavior{0: strat.Build(3), 4: strat.Build(5)}
			inputs := make([]*big.Int, n)
			var honest []*big.Int
			for i := range inputs {
				inputs[i] = big.NewInt(int64(3000 + i*7))
				if _, bad := corrupt[i]; !bad {
					honest = append(honest, inputs[i])
				}
			}
			res, err := sim.Collect(sim.Config{N: n, T: tc}, corrupt,
				func(env *sim.Env) (*big.Int, error) {
					return baselines.BroadcastCAParallel(env, "bcp", inputs[env.ID()])
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

func TestParallelRoundsFarBelowSequential(t *testing.T) {
	// The entire point of the composition: same bits, ~n× fewer rounds.
	n, tc := 7, 2
	inputs := make([]*big.Int, n)
	for i := range inputs {
		inputs[i] = big.NewInt(int64(i * 1000))
	}
	runWith := func(parallel bool) *sim.Report {
		res, err := sim.Collect(sim.Config{N: n, T: tc}, nil,
			func(env *sim.Env) (*big.Int, error) {
				if parallel {
					return baselines.BroadcastCAParallel(env, "bc", inputs[env.ID()])
				}
				return baselines.BroadcastCA(env, "bc", inputs[env.ID()])
			})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := testutil.AgreeBig(res); err != nil {
			t.Fatal(err)
		}
		return res.Report
	}
	seq := runWith(false)
	par := runWith(true)
	if par.Rounds*3 > seq.Rounds {
		t.Errorf("parallel rounds %d not well below sequential %d", par.Rounds, seq.Rounds)
	}
}
