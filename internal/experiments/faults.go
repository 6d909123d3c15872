package experiments

import (
	"fmt"
	"math/big"

	ca "convexagreement"
)

// E17 drives the deployment stack — a session over WrapFaulty over a local
// cluster (harness.go) — through a catalog of named fault scenarios. Where E4/E7/E10
// attack the protocol through the simulator's byzantine scheduler, E17
// attacks it through the *transport*: seed-deterministic drops, delays
// beyond Δ, duplication, corruption, partitions, and crash/restart windows,
// all landing on the links of a designated faulty set of ≤ t parties. The
// paper's model folds every such fault into the adversary's power, so
// agreement and convex validity over the clean parties must survive all of
// them; determinism of the injection layer additionally makes every run
// replayable from its seed.

// faultScenario names one fault mix targeted at a set of parties.
type faultScenario struct {
	name  string
	build func(n int, faulty []int, seed int64) ca.FaultConfig
}

// e17MaxRounds bounds every scenario run: a protocol starved to a standstill
// surfaces as ErrRoundLimit instead of hanging the experiment.
const e17MaxRounds = 4000

func e17Scenarios() []faultScenario {
	perFaulty := func(faulty []int, mk func(f int) []ca.FaultRule) []ca.FaultRule {
		var rules []ca.FaultRule
		for _, f := range faulty {
			rules = append(rules, mk(f)...)
		}
		return rules
	}
	return []faultScenario{
		{name: "drop", build: func(n int, faulty []int, seed int64) ca.FaultConfig {
			return ca.FaultConfig{Seed: seed, MaxRounds: e17MaxRounds, Rules: perFaulty(faulty, func(f int) []ca.FaultRule {
				return []ca.FaultRule{
					{Kind: ca.FaultDrop, From: f, To: ca.AnyParty, Prob: 0.3},
					{Kind: ca.FaultDrop, From: ca.AnyParty, To: f, Prob: 0.2},
				}
			})}
		}},
		{name: "delay>Δ", build: func(n int, faulty []int, seed int64) ca.FaultConfig {
			return ca.FaultConfig{Seed: seed, MaxRounds: e17MaxRounds, Rules: perFaulty(faulty, func(f int) []ca.FaultRule {
				return []ca.FaultRule{
					{Kind: ca.FaultDelay, From: f, To: ca.AnyParty, Prob: 0.3, DelayRounds: 2},
					{Kind: ca.FaultDelay, From: ca.AnyParty, To: f, Prob: 0.15, DelayRounds: 3},
				}
			})}
		}},
		{name: "duplicate", build: func(n int, faulty []int, seed int64) ca.FaultConfig {
			return ca.FaultConfig{Seed: seed, MaxRounds: e17MaxRounds, Rules: perFaulty(faulty, func(f int) []ca.FaultRule {
				return []ca.FaultRule{
					{Kind: ca.FaultDuplicate, From: f, To: ca.AnyParty, Prob: 0.5},
					{Kind: ca.FaultDuplicate, From: ca.AnyParty, To: f, Prob: 0.3},
				}
			})}
		}},
		{name: "corrupt", build: func(n int, faulty []int, seed int64) ca.FaultConfig {
			return ca.FaultConfig{Seed: seed, MaxRounds: e17MaxRounds, Rules: perFaulty(faulty, func(f int) []ca.FaultRule {
				return []ca.FaultRule{{Kind: ca.FaultCorrupt, From: f, To: ca.AnyParty, Prob: 0.35}}
			})}
		}},
		{name: "partition-heal", build: func(n int, faulty []int, seed int64) ca.FaultConfig {
			return ca.FaultConfig{Seed: seed, MaxRounds: e17MaxRounds, Partitions: []ca.FaultPartition{
				{FromRound: 2, ToRound: 8, GroupA: faulty},
			}}
		}},
		{name: "crash-restart", build: func(n int, faulty []int, seed int64) ca.FaultConfig {
			var crashes []ca.FaultCrash
			for i, f := range faulty {
				crashes = append(crashes, ca.FaultCrash{Party: f, FromRound: 2 + i, ToRound: 6 + i})
			}
			return ca.FaultConfig{Seed: seed, MaxRounds: e17MaxRounds, Crashes: crashes}
		}},
	}
}

// e17Row dual-runs one scenario at one n — every party behind cfg, one
// instance of Π_ℤ — and renders the table cells: agreement and validity over
// the parties outside faulty, and replay across the two identically-seeded
// runs. A ghost (honest protocol, adversarially extreme input: the canonical
// convex-validity attack) is just a faulty party whose input says so.
func e17Row(name string, n int, faulty []int, inputs []*big.Int, cfg ca.FaultConfig) []string {
	c := Cluster{N: n, Faults: cfg, Instances: 1, Input: func(party, _ int) *big.Int { return inputs[party] }}
	a, b := mustRun(c), mustRun(c)
	clean := allBut(n, faulty...)
	v := a.Judge(clean)
	return []string{
		name, fmt.Sprint(n), fmt.Sprint(defaultT(n)), fmt.Sprint(len(faulty)),
		mark(v.Agree), mark(v.Valid), mark(SameRun(a, b) == nil), fmt.Sprint(a.Parties[clean[0]].Rounds),
	}
}

// E17FaultSweep measures robustness of the deployment stack under the fault
// catalog.
func E17FaultSweep(quick bool) Table {
	ns := []int{7, 16, 31}
	if quick {
		ns = []int{7, 16}
	}
	tab := Table{
		ID:     "E17",
		Title:  "Fault injection sweep over the deployment transport",
		Claim:  "with all faults confined to ≤ t parties' links, Π_ℤ keeps agreement and convex validity over the clean parties for every fault kind, and identically-seeded runs replay identical transcripts",
		Header: []string{"scenario", "n", "t", "faulty", "agree", "validity", "replay", "rounds"},
	}
	for _, sc := range e17Scenarios() {
		for _, n := range ns {
			// Clean inputs span a band; the faulty (honest but disturbed)
			// parties sit at its center, so the clean hull bounds every
			// honest input and validity can be asserted uniformly.
			var faulty []int
			inputs := make([]*big.Int, n)
			for i := range inputs {
				if i < n-defaultT(n) {
					inputs[i] = big.NewInt(990 + int64(i))
				} else {
					inputs[i] = big.NewInt(1000)
					faulty = append(faulty, i)
				}
			}
			tab.Rows = append(tab.Rows, e17Row(sc.name, n, faulty, inputs, sc.build(n, faulty, int64(1700+n))))
		}
	}
	// Combined run: a ghost byzantine party (honest protocol, poisoned
	// extreme input) on top of link faults hitting a second party — both
	// count against the budget, so it needs t ≥ 2.
	for _, n := range ns {
		if defaultT(n) < 2 {
			continue
		}
		ghost, disturbed := n-1, n-2
		inputs := make([]*big.Int, n)
		for i := range inputs {
			inputs[i] = big.NewInt(990 + int64(i))
		}
		inputs[disturbed] = big.NewInt(1000)
		inputs[ghost] = new(big.Int).Lsh(big.NewInt(1), 40) // the paper's +100°C sensor
		cfg := ca.FaultConfig{Seed: int64(2900 + n), MaxRounds: e17MaxRounds, Rules: []ca.FaultRule{
			{Kind: ca.FaultDrop, From: disturbed, To: ca.AnyParty, Prob: 0.3},
			{Kind: ca.FaultDelay, From: ca.AnyParty, To: disturbed, Prob: 0.2, DelayRounds: 2},
		}}
		tab.Rows = append(tab.Rows, e17Row("ghost+drop", n, []int{disturbed, ghost}, inputs, cfg))
	}
	return tab
}
