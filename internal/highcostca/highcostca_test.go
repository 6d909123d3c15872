package highcostca_test

import (
	"math/big"
	"math/rand"
	"testing"

	"convexagreement/internal/adversary"
	"convexagreement/internal/highcostca"
	"convexagreement/internal/sim"
	"convexagreement/internal/testutil"
)

// runNat is Run on a *big.Int, converted at the edge as the public
// ProtoHighCost converts it.
func runNat(env *sim.Env, v *big.Int) (*big.Int, error) {
	out, err := highcostca.Run(env, "hc", v.Bytes(), nil)
	if err != nil {
		return nil, err
	}
	return new(big.Int).SetBytes(out), nil
}

func run(t *testing.T, n, tc int, inputs []*big.Int, corrupt map[int]sim.Behavior) (*sim.Result[*big.Int], *big.Int) {
	t.Helper()
	res, err := sim.Collect(sim.Config{N: n, T: tc}, corrupt,
		func(env *sim.Env) (*big.Int, error) {
			return runNat(env, inputs[env.ID()])
		})
	if err != nil {
		t.Fatalf("n=%d t=%d: %v", n, tc, err)
	}
	out, err := testutil.AgreeBig(res)
	if err != nil {
		t.Fatalf("agreement violated: %v", err)
	}
	return res, out
}

func honestInputs(inputs []*big.Int, corrupt map[int]sim.Behavior) []*big.Int {
	var out []*big.Int
	for i, v := range inputs {
		if _, bad := corrupt[i]; !bad {
			out = append(out, v)
		}
	}
	return out
}

func TestAllHonestIdenticalInputs(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7} {
		tc := (n - 1) / 3
		inputs := make([]*big.Int, n)
		for i := range inputs {
			inputs[i] = big.NewInt(424242)
		}
		_, out := run(t, n, tc, inputs, nil)
		if out.Int64() != 424242 {
			t.Errorf("n=%d: output %v, want 424242", n, out)
		}
	}
}

func TestConvexValidityMixedInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 15; trial++ {
		n := 4 + rng.Intn(8)
		tc := (n - 1) / 3
		inputs := make([]*big.Int, n)
		for i := range inputs {
			inputs[i] = big.NewInt(int64(rng.Intn(1000000)))
		}
		_, out := run(t, n, tc, inputs, nil)
		if err := testutil.HullCheck(out, inputs); err != nil {
			t.Errorf("trial %d: %v", trial, err)
		}
	}
}

func TestUnderAdversaryCatalog(t *testing.T) {
	for _, strat := range adversary.Catalog() {
		strat := strat
		t.Run(strat.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(77))
			for trial := 0; trial < 5; trial++ {
				n := 4 + rng.Intn(7)
				tc := (n - 1) / 3
				if tc == 0 {
					continue
				}
				corrupt := map[int]sim.Behavior{}
				for len(corrupt) < tc {
					corrupt[rng.Intn(n)] = strat.Build(int64(trial))
				}
				inputs := make([]*big.Int, n)
				for i := range inputs {
					inputs[i] = big.NewInt(int64(100 + rng.Intn(100)))
				}
				_, out := run(t, n, tc, inputs, corrupt)
				if err := testutil.HullCheck(out, honestInputs(inputs, corrupt)); err != nil {
					t.Errorf("%s trial %d: %v", strat.Name, trial, err)
				}
			}
		})
	}
}

func TestGhostsWithExtremeInputs(t *testing.T) {
	// The canonical convex-validity attack: corrupt parties run the honest
	// protocol with wildly out-of-range inputs (the paper's +100°C sensor).
	n, tc := 10, 3
	ghost := func(v *big.Int) sim.Behavior {
		return sim.Ghost(func(env *sim.Env) error {
			_, err := runNat(env, v)
			return err
		})
	}
	huge := new(big.Int).Lsh(big.NewInt(1), 300)
	corrupt := map[int]sim.Behavior{
		1: ghost(big.NewInt(0)),
		5: ghost(huge),
		8: ghost(new(big.Int).Lsh(big.NewInt(1), 250)),
	}
	inputs := make([]*big.Int, n)
	for i := range inputs {
		inputs[i] = big.NewInt(int64(5000 + i))
	}
	_, out := run(t, n, tc, inputs, corrupt)
	if err := testutil.HullCheck(out, honestInputs(inputs, corrupt)); err != nil {
		t.Fatal(err)
	}
}

func TestRoundCount(t *testing.T) {
	n, tc := 7, 2
	inputs := make([]*big.Int, n)
	for i := range inputs {
		inputs[i] = big.NewInt(int64(i))
	}
	res, _ := run(t, n, tc, inputs, nil)
	if res.Report.Rounds != highcostca.Rounds(tc) {
		t.Errorf("rounds = %d, want %d", res.Report.Rounds, highcostca.Rounds(tc))
	}
}

func TestLargeValues(t *testing.T) {
	// Multi-kilobit inputs exercise the big.Int paths.
	n, tc := 4, 1
	rng := rand.New(rand.NewSource(3))
	inputs := make([]*big.Int, n)
	base := new(big.Int).Lsh(big.NewInt(1), 4000)
	for i := range inputs {
		inputs[i] = new(big.Int).Add(base, big.NewInt(int64(rng.Intn(1000))))
	}
	_, out := run(t, n, tc, inputs, nil)
	if err := testutil.HullCheck(out, inputs); err != nil {
		t.Fatal(err)
	}
}

// TestNonCanonicalInputs: an input is read as a natural whatever its
// encoding — with leading zero bytes, or empty for 0 — and runs exactly as
// its canonical encoding does: same output, same cost, and every encoding
// of one number counts for that number.
func TestNonCanonicalInputs(t *testing.T) {
	n, tc := 4, 1
	canonical := [][]byte{{0x12, 0x34}, {0x12, 0x34}, {}, {0x01}}
	padded := [][]byte{{0, 0, 0x12, 0x34}, {0x12, 0x34}, {0, 0, 0}, {0, 0x01}}
	runRaw := func(inputs [][]byte) (*sim.Result[string], string) {
		res, err := sim.Collect(sim.Config{N: n, T: tc}, nil, func(env *sim.Env) (string, error) {
			out, err := highcostca.Run(env, "hc", inputs[env.ID()], nil)
			if len(out) > 0 && out[0] == 0 {
				t.Errorf("party %d: output %x is not canonical", env.ID(), out)
			}
			return string(out), err
		})
		if err != nil {
			t.Fatal(err)
		}
		out, err := testutil.AgreeValue(res)
		if err != nil {
			t.Fatal(err)
		}
		return res, out
	}
	want, wantOut := runRaw(canonical)
	got, gotOut := runRaw(padded)
	if gotOut != wantOut {
		t.Errorf("output %x from padded inputs, %x from canonical ones", gotOut, wantOut)
	}
	if got.Report.HonestBits != want.Report.HonestBits {
		t.Errorf("padded inputs sent %d bits, canonical ones %d", got.Report.HonestBits, want.Report.HonestBits)
	}
}

func TestZeroInputsWork(t *testing.T) {
	n, tc := 4, 1
	inputs := make([]*big.Int, n)
	for i := range inputs {
		inputs[i] = big.NewInt(0)
	}
	_, out := run(t, n, tc, inputs, nil)
	if out.Sign() != 0 {
		t.Errorf("output %v, want 0", out)
	}
}
