package aa_test

import (
	"math/big"
	"math/rand"
	"testing"

	"convexagreement/internal/aa"
	"convexagreement/internal/adversary"
	"convexagreement/internal/sim"
	"convexagreement/internal/testutil"
)

func runAA(t *testing.T, n, tc int, inputs []*big.Int, diameter, eps int64, corrupt map[int]sim.Behavior) *sim.Result[*big.Int] {
	t.Helper()
	res, err := sim.Collect(sim.Config{N: n, T: tc}, corrupt,
		func(env *sim.Env) (*big.Int, error) {
			return aa.Run(env, "aa", inputs[env.ID()], big.NewInt(diameter), big.NewInt(eps))
		})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkEpsAgreement verifies pairwise ε-closeness and hull membership.
func checkEpsAgreement(t *testing.T, res *sim.Result[*big.Int], honest []*big.Int, eps int64) {
	t.Helper()
	var values []*big.Int
	for id, v := range res.Outputs {
		if err := testutil.HullCheck(v, honest); err != nil {
			t.Fatalf("party %d: %v", id, err)
		}
		values = append(values, v)
	}
	for i := range values {
		for j := range values {
			d := new(big.Int).Sub(values[i], values[j])
			d.Abs(d)
			if d.Cmp(big.NewInt(eps)) > 0 {
				t.Fatalf("outputs %v and %v differ by more than ε=%d", values[i], values[j], eps)
			}
		}
	}
}

func TestIdenticalInputsStayPut(t *testing.T) {
	n, tc := 4, 1
	inputs := make([]*big.Int, n)
	for i := range inputs {
		inputs[i] = big.NewInt(5555)
	}
	res := runAA(t, n, tc, inputs, 10000, 1, nil)
	for id, v := range res.Outputs {
		if v.Int64() != 5555 {
			t.Errorf("party %d drifted to %v", id, v)
		}
	}
}

func TestEpsilonAgreementHonest(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 10; trial++ {
		n := 4 + rng.Intn(7)
		tc := (n - 1) / 3
		const diameter = 1 << 20
		inputs := make([]*big.Int, n)
		for i := range inputs {
			inputs[i] = big.NewInt(rng.Int63n(diameter))
		}
		for _, eps := range []int64{1, 64, 4096} {
			res := runAA(t, n, tc, inputs, diameter, eps, nil)
			checkEpsAgreement(t, res, inputs, eps)
		}
	}
}

func TestEpsilonAgreementUnderAdversaries(t *testing.T) {
	for _, strat := range adversary.Catalog() {
		strat := strat
		t.Run(strat.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(9))
			n, tc := 7, 2
			const diameter = 1 << 16
			corrupt := map[int]sim.Behavior{2: strat.Build(rng.Int63()), 5: strat.Build(rng.Int63())}
			inputs := make([]*big.Int, n)
			var honest []*big.Int
			for i := range inputs {
				inputs[i] = big.NewInt(rng.Int63n(diameter))
				if _, bad := corrupt[i]; !bad {
					honest = append(honest, inputs[i])
				}
			}
			res := runAA(t, n, tc, inputs, diameter, 16, corrupt)
			checkEpsAgreement(t, res, honest, 16)
		})
	}
}

func TestGhostExtremesCannotDragAA(t *testing.T) {
	n, tc := 7, 2
	const diameter = 1 << 16
	ghost := func(v *big.Int) sim.Behavior {
		return sim.Ghost(func(env *sim.Env) error {
			_, err := aa.Run(env, "aa", v, big.NewInt(diameter), big.NewInt(8))
			return err
		})
	}
	corrupt := map[int]sim.Behavior{
		1: ghost(big.NewInt(0)),
		4: ghost(new(big.Int).Lsh(big.NewInt(1), 60)), // far outside the bound
	}
	inputs := make([]*big.Int, n)
	var honest []*big.Int
	for i := range inputs {
		inputs[i] = big.NewInt(30000 + int64(i)*13)
		if _, bad := corrupt[i]; !bad {
			honest = append(honest, inputs[i])
		}
	}
	res := runAA(t, n, tc, inputs, diameter, 8, corrupt)
	checkEpsAgreement(t, res, honest, 8)
}

func TestRoundsFormula(t *testing.T) {
	cases := []struct {
		d, e int64
		want int
	}{
		{1, 1, 3},       // ⌈log₂1⌉ + slack
		{1024, 1, 13},   // 11 halvings + 2
		{1024, 1024, 3}, // already within ε
		{1 << 20, 16, 19},
	}
	for _, tc := range cases {
		if got := aa.Rounds(big.NewInt(tc.d), big.NewInt(tc.e)); got != tc.want {
			t.Errorf("Rounds(%d, %d) = %d, want %d", tc.d, tc.e, got, tc.want)
		}
	}
}

func TestArgumentValidation(t *testing.T) {
	run := func(input, d, e *big.Int) error {
		_, err := sim.Collect(sim.Config{N: 1, T: 0}, nil,
			func(env *sim.Env) (*big.Int, error) {
				return aa.Run(env, "aa", input, d, e)
			})
		return err
	}
	if err := run(nil, big.NewInt(1), big.NewInt(1)); err == nil {
		t.Error("nil input accepted")
	}
	if err := run(big.NewInt(1), big.NewInt(1), big.NewInt(0)); err == nil {
		t.Error("epsilon 0 accepted")
	}
	if err := run(big.NewInt(1), big.NewInt(-1), big.NewInt(1)); err == nil {
		t.Error("negative diameter accepted")
	}
}
