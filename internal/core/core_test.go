package core_test

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"convexagreement/internal/adversary"
	"convexagreement/internal/core"
	"convexagreement/internal/sim"
	"convexagreement/internal/testutil"
)

// caProto abstracts the CA protocol under test so the same property
// campaign runs against every variant.
type caProto struct {
	name string
	// run executes the protocol; width is used by the fixed-length
	// variants and ignored by PiN/PiZ.
	run func(env *sim.Env, width int, v *big.Int) (*big.Int, error)
	// widthFor computes a legal width for the given n and max input length.
	widthFor func(n, maxLen int) int
	// negatives reports whether the protocol accepts negative inputs.
	negatives bool
}

func protocols() []caProto {
	return []caProto{
		{
			name: "FixedLengthCA",
			run: func(env *sim.Env, width int, v *big.Int) (*big.Int, error) {
				return core.FixedLengthCA(env, "ca", width, v, nil)
			},
			widthFor: func(n, maxLen int) int { return maxLen },
		},
		{
			name: "FixedLengthCABlocks",
			run: func(env *sim.Env, width int, v *big.Int) (*big.Int, error) {
				return core.FixedLengthCABlocks(env, "ca", width, env.N()*env.N(), v, nil)
			},
			widthFor: func(n, maxLen int) int {
				n2 := n * n
				return ((maxLen + n2 - 1) / n2) * n2 // round up to a block multiple
			},
		},
		{
			name: "PiN",
			run: func(env *sim.Env, width int, v *big.Int) (*big.Int, error) {
				return core.PiN(env, "ca", v, nil)
			},
			widthFor: func(n, maxLen int) int { return maxLen },
		},
		{
			name: "PiZ",
			run: func(env *sim.Env, width int, v *big.Int) (*big.Int, error) {
				return core.PiZ(env, "ca", v, nil)
			},
			widthFor:  func(n, maxLen int) int { return maxLen },
			negatives: true,
		},
	}
}

// runCA executes one CA instance and checks Termination + Agreement,
// returning the common output.
func runCA(t *testing.T, p caProto, n, tc, width int, inputs []*big.Int, corrupt map[int]sim.Behavior) (*testutil.Result[*big.Int], *big.Int) {
	t.Helper()
	res, err := testutil.Run(sim.Config{N: n, T: tc}, corrupt,
		func(env *sim.Env) (*big.Int, error) {
			return p.run(env, width, inputs[env.ID()])
		})
	if err != nil {
		t.Fatalf("%s n=%d t=%d: %v", p.name, n, tc, err)
	}
	out, err := testutil.AgreeBig(res)
	if err != nil {
		t.Fatalf("%s: agreement violated: %v", p.name, err)
	}
	return res, out
}

func honestOnly(inputs []*big.Int, corrupt map[int]sim.Behavior) []*big.Int {
	var out []*big.Int
	for i, v := range inputs {
		if _, bad := corrupt[i]; !bad {
			out = append(out, v)
		}
	}
	return out
}

func TestIdenticalInputsAllVariants(t *testing.T) {
	for _, p := range protocols() {
		p := p
		t.Run(p.name, func(t *testing.T) {
			for _, n := range []int{1, 4, 7} {
				tc := (n - 1) / 3
				width := p.widthFor(n, 64)
				val := big.NewInt(0xDEADBEE)
				inputs := make([]*big.Int, n)
				for i := range inputs {
					inputs[i] = val
				}
				_, out := runCA(t, p, n, tc, width, inputs, nil)
				if out.Cmp(val) != 0 {
					t.Errorf("n=%d: output %v, want %v", n, out, val)
				}
			}
		})
	}
}

func TestConvexValidityHonestMixtures(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, p := range protocols() {
		p := p
		t.Run(p.name, func(t *testing.T) {
			for trial := 0; trial < 6; trial++ {
				n := 4 + rng.Intn(6)
				tc := (n - 1) / 3
				width := p.widthFor(n, 48)
				inputs := make([]*big.Int, n)
				for i := range inputs {
					inputs[i] = big.NewInt(int64(rng.Uint32()))
					if p.negatives && rng.Intn(2) == 1 {
						inputs[i].Neg(inputs[i])
					}
				}
				_, out := runCA(t, p, n, tc, width, inputs, nil)
				if err := testutil.HullCheck(out, inputs); err != nil {
					t.Errorf("trial %d: %v", trial, err)
				}
			}
		})
	}
}

// ghostCA makes a corrupted party run the protocol honestly with a chosen
// (typically extreme) input — the paper's motivating +100°C sensor attack.
func ghostCA(p caProto, width int, v *big.Int) sim.Behavior {
	return testutil.Ghost(func(env *sim.Env) error {
		_, err := p.run(env, width, v)
		return err
	})
}

func TestConvexValidityUnderExtremeGhosts(t *testing.T) {
	for _, p := range protocols() {
		p := p
		t.Run(p.name, func(t *testing.T) {
			n, tc := 7, 2
			width := p.widthFor(n, 40)
			lo := big.NewInt(0)
			hi := new(big.Int).Lsh(big.NewInt(1), 39) // near the top of the width
			corrupt := map[int]sim.Behavior{
				1: ghostCA(p, width, lo),
				4: ghostCA(p, width, hi),
			}
			inputs := make([]*big.Int, n)
			for i := range inputs {
				inputs[i] = big.NewInt(int64(1000000 + i*10))
			}
			_, out := runCA(t, p, n, tc, width, inputs, corrupt)
			if err := testutil.HullCheck(out, honestOnly(inputs, corrupt)); err != nil {
				t.Errorf("extreme ghosts dragged output outside hull: %v", err)
			}
		})
	}
}

func TestConvexValidityUnderAdversaryCatalog(t *testing.T) {
	for _, p := range protocols() {
		p := p
		t.Run(p.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(55))
			for _, strat := range adversary.Catalog() {
				n, tc := 7, 2
				width := p.widthFor(n, 32)
				corrupt := map[int]sim.Behavior{
					2: strat.Build(rng.Int63()),
					6: strat.Build(rng.Int63()),
				}
				inputs := make([]*big.Int, n)
				for i := range inputs {
					inputs[i] = big.NewInt(int64(rng.Intn(1 << 20)))
				}
				_, out := runCA(t, p, n, tc, width, inputs, corrupt)
				if err := testutil.HullCheck(out, honestOnly(inputs, corrupt)); err != nil {
					t.Errorf("%s: %v", strat.Name, err)
				}
			}
		})
	}
}

func TestTightClusters(t *testing.T) {
	// The paper's sensor scenario: honest inputs nearly identical, byzantine
	// ghosts far away. The output must stay in the tight honest band.
	p := protocols()[2] // PiN
	n, tc := 10, 3
	corrupt := map[int]sim.Behavior{
		0: ghostCA(p, 0, big.NewInt(1)),
		3: ghostCA(p, 0, new(big.Int).Lsh(big.NewInt(1), 60)),
		7: adversary.Equivocate(9),
	}
	inputs := make([]*big.Int, n)
	for i := range inputs {
		inputs[i] = big.NewInt(int64(1000000000 + i)) // −10.05°C … style band
	}
	_, out := runCA(t, p, n, tc, 0, inputs, corrupt)
	if err := testutil.HullCheck(out, honestOnly(inputs, corrupt)); err != nil {
		t.Fatal(err)
	}
}

func TestPiNLongInputsTakeBlockPath(t *testing.T) {
	// Inputs longer than n² bits force the FIXEDLENGTHCABLOCKS path.
	n, tc := 4, 1 // n² = 16 bits, easily exceeded
	rng := rand.New(rand.NewSource(77))
	inputs := make([]*big.Int, n)
	base := new(big.Int).Lsh(big.NewInt(1), 1000)
	for i := range inputs {
		inputs[i] = new(big.Int).Add(base, big.NewInt(int64(rng.Intn(1<<20))))
	}
	res, err := testutil.Run(sim.Config{N: n, T: tc}, nil,
		func(env *sim.Env) (*big.Int, error) {
			return core.PiN(env, "ca", inputs[env.ID()], nil)
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
	if res.Report.BitsByTag["ca/blocksize/hc-input"] == 0 {
		t.Error("block path was not exercised")
	}
}

func TestPiNMixedLengthClasses(t *testing.T) {
	// Some honest inputs under n² bits, some over: the class bit is decided
	// by BA and whatever it decides, CA must hold.
	n, tc := 4, 1
	inputs := []*big.Int{
		big.NewInt(3),
		new(big.Int).Lsh(big.NewInt(1), 300),
		big.NewInt(12345),
		new(big.Int).Lsh(big.NewInt(7), 200),
	}
	res, err := testutil.Run(sim.Config{N: n, T: tc}, nil,
		func(env *sim.Env) (*big.Int, error) {
			return core.PiN(env, "ca", inputs[env.ID()], nil)
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

func TestPiZSignScenarios(t *testing.T) {
	cases := []struct {
		name   string
		inputs []int64
	}{
		{"all-negative", []int64{-50, -40, -45, -60}},
		{"mixed-signs", []int64{-10, 20, -30, 40}},
		{"straddle-zero", []int64{-1, 0, 1, 2}},
		{"all-zero", []int64{0, 0, 0, 0}},
	}
	for _, tcase := range cases {
		tcase := tcase
		t.Run(tcase.name, func(t *testing.T) {
			n, tc := 4, 1
			inputs := make([]*big.Int, n)
			for i, v := range tcase.inputs {
				inputs[i] = big.NewInt(v)
			}
			res, err := testutil.Run(sim.Config{N: n, T: tc}, nil,
				func(env *sim.Env) (*big.Int, error) {
					return core.PiZ(env, "ca", inputs[env.ID()], nil)
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
		})
	}
}

func TestPiZNegativeGhosts(t *testing.T) {
	// Byzantine parties claim enormous negative values; honest inputs are
	// all positive, so the output must stay positive.
	p := protocols()[3]
	n, tc := 7, 2
	neg := new(big.Int).Neg(new(big.Int).Lsh(big.NewInt(1), 100))
	corrupt := map[int]sim.Behavior{
		0: ghostCA(p, 0, neg),
		3: ghostCA(p, 0, neg),
	}
	inputs := make([]*big.Int, n)
	for i := range inputs {
		inputs[i] = big.NewInt(int64(100 + i))
	}
	_, out := runCA(t, p, n, tc, 0, inputs, corrupt)
	if err := testutil.HullCheck(out, honestOnly(inputs, corrupt)); err != nil {
		t.Fatal(err)
	}
	if out.Sign() <= 0 {
		t.Fatalf("output %v dragged non-positive by negative ghosts", out)
	}
}

func TestFixedLengthRejectsOversizedInput(t *testing.T) {
	_, err := testutil.Run(sim.Config{N: 1, T: 0}, nil,
		func(env *sim.Env) (*big.Int, error) {
			return core.FixedLengthCA(env, "ca", 8, big.NewInt(256), nil)
		})
	if err == nil {
		t.Error("256 accepted for width 8")
	}
}

func TestFixedLengthCABlocksRejectsBadWidth(t *testing.T) {
	_, err := testutil.Run(sim.Config{N: 2, T: 0}, nil,
		func(env *sim.Env) (*big.Int, error) {
			return core.FixedLengthCABlocks(env, "ca", 10, 4, big.NewInt(1), nil)
		})
	if err == nil {
		t.Error("width 10 with 4 blocks accepted")
	}
}

func TestPiNRejectsNegative(t *testing.T) {
	_, err := testutil.Run(sim.Config{N: 1, T: 0}, nil,
		func(env *sim.Env) (*big.Int, error) {
			return core.PiN(env, "ca", big.NewInt(-1), nil)
		})
	if err == nil {
		t.Error("negative input accepted by PiN")
	}
}

// TestCommunicationLinearInEll is the smoke-test version of E1: doubling ℓ
// must roughly double FixedLengthCA's honest bits once ℓ dominates.
func TestCommunicationLinearInEll(t *testing.T) {
	n, tc := 4, 1
	bitsAt := func(width int) int64 {
		rng := rand.New(rand.NewSource(5))
		inputs := make([]*big.Int, n)
		for i := range inputs {
			v := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(width)))
			inputs[i] = v
		}
		res, err := testutil.Run(sim.Config{N: n, T: tc}, nil,
			func(env *sim.Env) (*big.Int, error) {
				return core.FixedLengthCA(env, "ca", width, inputs[env.ID()], nil)
			})
		if err != nil {
			t.Fatal(err)
		}
		return res.Report.HonestBits
	}
	small := bitsAt(1 << 14)
	large := bitsAt(1 << 17)
	growth := float64(large) / float64(small)
	// 8× more input bits: expect ≈8× plus additive slack, far from the 64×
	// an ℓ·n²-style protocol would show only in n... (sanity corridor).
	if growth > 16 {
		t.Errorf("growth %.2f: communication is not linear in ℓ", growth)
	}
}

func TestVariantOutputsAllValid(t *testing.T) {
	// Cross-variant coherence on one instance: all four protocols satisfy
	// the hull property on the same input vector (outputs may differ).
	n, tc := 7, 2
	rng := rand.New(rand.NewSource(13))
	inputs := make([]*big.Int, n)
	for i := range inputs {
		inputs[i] = big.NewInt(int64(rng.Intn(1 << 30)))
	}
	for _, p := range protocols() {
		width := p.widthFor(n, 32)
		_, out := runCA(t, p, n, tc, width, inputs, nil)
		if err := testutil.HullCheck(out, inputs); err != nil {
			t.Errorf("%s: %v", p.name, err)
		}
	}
}

func TestManyPartySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("long smoke test")
	}
	n, tc := 13, 4
	rng := rand.New(rand.NewSource(3))
	corrupt := map[int]sim.Behavior{}
	strategies := adversary.Catalog()
	for len(corrupt) < tc {
		corrupt[rng.Intn(n)] = strategies[rng.Intn(len(strategies))].Build(rng.Int63())
	}
	inputs := make([]*big.Int, n)
	for i := range inputs {
		inputs[i] = big.NewInt(int64(rng.Intn(1 << 28)))
	}
	p := protocols()[2]
	_, out := runCA(t, p, n, tc, 0, inputs, corrupt)
	if err := testutil.HullCheck(out, honestOnly(inputs, corrupt)); err != nil {
		t.Fatal(err)
	}
}

func ExamplePiZ() {
	// Five parties, one byzantine, agree on a temperature reading scaled to
	// millidegrees. The byzantine sensor (party 4) reports +100°C; the
	// output stays inside the honest range.
	n, tc := 5, 1
	inputs := []*big.Int{
		big.NewInt(-10050), big.NewInt(-10040), big.NewInt(-10030), big.NewInt(-10045),
		nil, // corrupted
	}
	corrupt := map[int]sim.Behavior{
		4: testutil.Ghost(func(env *sim.Env) error {
			_, err := core.PiZ(env, "ca", big.NewInt(100000), nil)
			return err
		}),
	}
	res, err := testutil.Run(sim.Config{N: n, T: tc}, corrupt,
		func(env *sim.Env) (*big.Int, error) {
			return core.PiZ(env, "ca", inputs[env.ID()], nil)
		})
	if err != nil {
		panic(err)
	}
	out, err := testutil.AgreeBig(res)
	if err != nil {
		panic(err)
	}
	fmt.Println(out.Cmp(big.NewInt(-10050)) >= 0 && out.Cmp(big.NewInt(-10030)) <= 0)
	// Output: true
}
