package core

import (
	"math/big"
	"math/rand"
	"testing"

	"convexagreement/internal/adversary"
	"convexagreement/internal/sim"
	"convexagreement/internal/testutil"
	"convexagreement/internal/transport"
)

// The benchmark's protocol shapes as exact simulator runs (bench/workloads.go
// and bench/simbyz.go, which the tests cannot import): the two short-input
// shapes of TestPiZRoundBudget and the sim_byz workload at one seed.

// budgetShape is one party count of smallInputs: 64-bit magnitudes of one
// sign sharing their top 48 bits, f = 0. n = 16 takes Π_ℕ's short path and
// n = 7, where 64 bits exceed n², the long one.
func budgetShape(n int) []*big.Int {
	inputs := make([]*big.Int, n)
	for p := range inputs {
		v := new(big.Int).SetUint64(0xC0FFEE0DECAF0000 | uint64(p*40503%(1<<16)))
		inputs[p] = v.Neg(v)
	}
	return inputs
}

// runShape runs one party function over inputs and returns the report.
func runShape(t *testing.T, inputs []*big.Int, corrupt map[int]sim.Behavior, run func(transport.Net, *big.Int) (*big.Int, error)) *sim.Report {
	t.Helper()
	n := len(inputs)
	res, err := testutil.Run(sim.Config{N: n, T: (n - 1) / 3}, corrupt, func(env *sim.Env) (*big.Int, error) {
		return run(env, inputs[env.ID()])
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Report
}

// byzCase is one agreement of simByz: the inputs, the corrupted parties
// and the strategy they all run (nil: the ghost, which runs the protocol on
// 2^40).
type byzCase struct {
	inputs   []*big.Int
	bad      []int
	strategy func(seed int64) sim.Behavior
	seed     int64
}

// corrupt builds the case's byzantine parties; the ghost runs run. Each
// strategy gets the seed ca.Agree gives it.
func (c byzCase) corrupt(run func(transport.Net, *big.Int) (*big.Int, error)) map[int]sim.Behavior {
	ghostInput := new(big.Int).Lsh(big.NewInt(1), 40)
	corrupt := make(map[int]sim.Behavior, len(c.bad))
	for _, p := range c.bad {
		if c.strategy == nil {
			corrupt[p] = testutil.Ghost(func(env *sim.Env) error { _, err := run(env, ghostInput); return err })
		} else {
			corrupt[p] = c.strategy(c.seed + int64(p))
		}
	}
	return corrupt
}

// simByz is the bench's sim_byz workload at one seed, the agreements whose
// counts it reports: n = 16, t = 5 parties corrupted per agreement, all
// running one strategy of the nine in turn, 4096-bit honest inputs;
// counted are agreements 3 to 47, after the warm-up.
func simByz(seed int64) []byzCase {
	const n, tc, bits, warmup, exact = 16, 5, 4096, 3, 45
	strategies := []func(seed int64) sim.Behavior{
		func(int64) sim.Behavior { return adversary.Silent() },
		func(int64) sim.Behavior { return adversary.Crash(3) },
		func(seed int64) sim.Behavior { return adversary.Garbage(seed, 128) },
		adversary.Equivocate,
		func(seed int64) sim.Behavior { return adversary.Mirror(seed%2 == 0) },
		func(seed int64) sim.Behavior { return adversary.Spam(seed, 3) },
		adversary.Replay,
		func(int64) sim.Behavior { return adversary.LateJoin(3) },
		nil,
	}
	rng := rand.New(rand.NewSource(seed))
	var cases []byzCase
	for i := 0; i < warmup+exact; i++ {
		c := byzCase{bad: rng.Perm(n)[:tc], strategy: strategies[i%len(strategies)], seed: seed + int64(i)}
		c.inputs = make([]*big.Int, n)
		for p := range c.inputs {
			v := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), bits-1))
			c.inputs[p] = v.SetBit(v, bits-1, 1)
		}
		if i >= warmup {
			cases = append(cases, c)
		}
	}
	return cases
}

// simByzTotals runs simByz(seed) and sums rounds and honest bits.
func simByzTotals(t *testing.T, seed int64, run func(transport.Net, *big.Int) (*big.Int, error)) (rounds int, bits int64) {
	t.Helper()
	for _, c := range simByz(seed) {
		rep := runShape(t, c.inputs, c.corrupt(run), run)
		rounds += rep.Rounds
		bits += rep.HonestBits
	}
	return rounds, bits
}

// TestPiZRoundBudget pins ROUNDS(Π_ℤ) on the benchmark's two short-input
// shapes: n = 16 takes the short path — 138 = 18 for the preamble instance
// + three 4-ary FindPrefix iterations of 40 (Π_BA+'s dist and vote, one
// Turpin–Coan + confirm stage of 20 + 18 over every lane; the segments are
// shorter than a Merkle root, so Π_ℓBA+ agrees on them directly, without
// its two dispersal rounds) — and n = 7 the long path. The tripwire for the round
// layer: a change that moves either number is a change to the latency of
// every deployed agreement.
func TestPiZRoundBudget(t *testing.T) {
	for _, c := range []struct{ n, rounds int }{{16, 138}, {7, 113}} {
		if got := runShape(t, budgetShape(c.n), nil, partyPiZ).Rounds; got != c.rounds {
			t.Errorf("n=%d: %d rounds, budget %d", c.n, got, c.rounds)
		}
	}
}

// TestPiZBitBudget pins BITS(Π_ℤ), the honest bits the simulator counts, on
// the same two shapes and on sim_byz at seed 7 (the sum over its 45 counted
// agreements; the benchmark reports the mean, 1 459 445). It is the
// communication half of the round budget: a change that trades bits for
// rounds re-pins both and states the trade in EXPERIMENTS.md (E22).
func TestPiZBitBudget(t *testing.T) {
	for _, c := range []struct {
		n    int
		bits int64
	}{{16, 1378080}, {7, 148320}} {
		if got := runShape(t, budgetShape(c.n), nil, partyPiZ).HonestBits; got != c.bits {
			t.Errorf("n=%d: %d honest bits, budget %d", c.n, got, c.bits)
		}
	}
	if _, got := simByzTotals(t, 7, partyPiZ); got != 65675040 {
		t.Errorf("sim_byz seed 7: %d honest bits over 45 agreements (mean %.0f), budget 65675040", got, float64(got)/45)
	}
}

// piZAt is Π_ℤ with its prefix search at arity k, as a party function.
func piZAt(k int) func(transport.Net, *big.Int) (*big.Int, error) {
	return func(env transport.Net, v *big.Int) (*big.Int, error) { return piZ(env, "ca", v, k) }
}

// TestArityTable is EXPERIMENTS.md E22, the table the search's arity was
// chosen from: rounds, honest bits and honest bytes per round of Π_ℤ at
// k ∈ {2, 3, 4, 8} on the three benchmark shapes (sim_byz summed over its
// 45 agreements). Run with -v to print it. The row at arity must be the
// exported PiZ's.
func TestArityTable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs sim_byz's 45 agreements at four arities")
	}
	type row struct {
		rounds int
		bits   int64
	}
	shapes := []struct {
		name string
		run  func(run func(transport.Net, *big.Int) (*big.Int, error)) row
	}{
		{"n=16 short path", func(run func(transport.Net, *big.Int) (*big.Int, error)) row {
			rep := runShape(t, budgetShape(16), nil, run)
			return row{rep.Rounds, rep.HonestBits}
		}},
		{"n=7 long path", func(run func(transport.Net, *big.Int) (*big.Int, error)) row {
			rep := runShape(t, budgetShape(7), nil, run)
			return row{rep.Rounds, rep.HonestBits}
		}},
		{"sim_byz seed 7", func(run func(transport.Net, *big.Int) (*big.Int, error)) row {
			rounds, bits := simByzTotals(t, 7, run)
			return row{rounds, bits}
		}},
	}
	t.Logf("%-16s %2s %7s %12s %14s", "shape", "k", "rounds", "honest bits", "bytes/round")
	for _, sh := range shapes {
		for _, k := range []int{2, 3, 4, 8} {
			r := sh.run(piZAt(k))
			t.Logf("%-16s %2d %7d %12d %14.0f", sh.name, k, r.rounds, r.bits, float64(r.bits)/8/float64(r.rounds))
			if k == arity {
				if exported := sh.run(partyPiZ); r != exported {
					t.Errorf("%s: arity %d reads %+v, PiZ %+v", sh.name, k, r, exported)
				}
			}
		}
	}
}

// partyPiZ is the exported PiZ as a party function.
func partyPiZ(env transport.Net, v *big.Int) (*big.Int, error) { return PiZ(env, "ca", v) }
