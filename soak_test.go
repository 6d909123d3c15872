package convexagreement_test

import (
	"math/big"
	"math/rand"
	"runtime"
	"testing"

	ca "convexagreement"
	"convexagreement/internal/adversary"
	"convexagreement/internal/experiments"
)

// TestSoak is the long randomized campaign across the whole public surface:
// random protocol, size, inputs, corruption mix, and seed, asserting
// Definition 1 end to end. It runs a reduced pass under -short.
func TestSoak(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 10
	}
	kinds := ca.AdversaryKinds()
	protos := ca.Protocols()
	rng := rand.New(rand.NewSource(2026))
	for trial := 0; trial < trials; trial++ {
		n := 4 + rng.Intn(9)
		tc := (n - 1) / 3
		proto := protos[rng.Intn(len(protos))]
		width := 0
		if proto.NeedsWidth() {
			width = n * n * (1 + rng.Intn(3)) // legal for both fixed variants
		}
		maxBits := 24
		if width > 0 {
			maxBits = width
		}
		bound := new(big.Int).Lsh(big.NewInt(1), uint(maxBits))

		inputs := make([]*big.Int, n)
		for i := range inputs {
			inputs[i] = new(big.Int).Rand(rng, bound)
			if proto.AcceptsNegative() && rng.Intn(2) == 1 {
				inputs[i].Neg(inputs[i])
			}
		}
		corr := map[int]ca.Corruption{}
		for len(corr) < rng.Intn(tc+1) {
			ghostInput := new(big.Int).Rand(rng, bound)
			if rng.Intn(2) == 1 {
				ghostInput.Lsh(ghostInput, 30) // often far outside the honest range
			}
			corr[rng.Intn(n)] = ca.Corruption{
				Kind:  kinds[rng.Intn(len(kinds))],
				Input: ghostInput,
			}
		}
		var honest []*big.Int
		for i, v := range inputs {
			if _, bad := corr[i]; !bad {
				honest = append(honest, v)
			}
		}
		res, err := ca.Agree(inputs, ca.Options{
			Protocol:    proto,
			Width:       width,
			Corruptions: corr,
			Seed:        rng.Int63(),
		})
		if err != nil {
			t.Fatalf("trial %d (%s n=%d width=%d corr=%d): %v", trial, proto, n, width, len(corr), err)
		}
		if !ca.InHull(res.Output, honest) {
			t.Fatalf("trial %d (%s n=%d): output %v escaped honest hull", trial, proto, n, res.Output)
		}
	}
}

// TestSoakFaultnet soaks the deployed stack under seeded transport faults
// rather than byzantine inputs: each trial wraps a fresh local cluster in a
// randomized drop+delay schedule concentrated on ≤ t parties and asserts the
// untouched parties still reach agreement and convex validity.
func TestSoakFaultnet(t *testing.T) {
	trials := 20
	if testing.Short() {
		trials = 5
	}
	rng := rand.New(rand.NewSource(2027))
	for trial := 0; trial < trials; trial++ {
		n := 4 + rng.Intn(6)
		tc := (n - 1) / 3
		disturbed := map[int]bool{}
		for len(disturbed) < 1+rng.Intn(tc) {
			disturbed[rng.Intn(n)] = true
		}
		cfg := ca.FaultConfig{Seed: rng.Int63(), MaxRounds: 4000}
		// Clean inputs span a band; disturbed parties sit mid-band so the
		// hull check is independent of how far their runs get (and counted
		// against the t budget: no guarantees).
		lo, hi := int64(1000*trial), int64(1000*trial+64)
		inputs := make([]*big.Int, n)
		var clean []int
		for i := range inputs {
			if !disturbed[i] {
				inputs[i] = big.NewInt(lo + rng.Int63n(hi-lo+1))
				clean = append(clean, i)
				continue
			}
			inputs[i] = big.NewInt((lo + hi) / 2)
			cfg.Rules = append(cfg.Rules,
				ca.FaultRule{Kind: ca.FaultDrop, From: ca.AnyParty, To: i, Prob: 0.25},
				ca.FaultRule{Kind: ca.FaultDrop, From: i, To: ca.AnyParty, Prob: 0.15},
				ca.FaultRule{Kind: ca.FaultDelay, From: i, To: ca.AnyParty, Prob: 0.20, DelayRounds: 2},
				ca.FaultRule{Kind: ca.FaultDelay, From: ca.AnyParty, To: i, Prob: 0.10, DelayRounds: 3},
			)
		}
		res := mustRunCluster(t, experiments.Cluster{
			N: n, Faults: cfg, Instances: 1,
			Input: func(party, _ int) *big.Int { return inputs[party] },
		})
		if v := res.Judge(clean); !v.Agree || !v.Valid {
			t.Fatalf("trial %d (n=%d, disturbed %v): %s", trial, n, disturbed, v.Why)
		}
	}
}

// TestSoakKillFlood is the combined-pressure soak: an n=7, t=2 cluster
// where one corrupt party crashes two rounds in and the other floods
// duplicate traffic at everyone for the whole run. The five honest parties
// must reach agreement with convex validity inside the round limit, and
// the flood must not pin memory: retained heap after the run stays under a
// per-party budget.
func TestSoakKillFlood(t *testing.T) {
	const (
		n               = 7
		crasher         = n - 2   // goes dark after two rounds, for good; party n−1 floods
		heapBudgetParty = 8 << 20 // bytes of retained heap per in-process party
	)
	res := mustRunCluster(t, experiments.Cluster{
		N: n, Instances: 1,
		Faults: ca.FaultConfig{
			Seed: 2028, MaxRounds: 4000,
			Crashes: []ca.FaultCrash{{Party: crasher, FromRound: 2}},
		},
		Input:  func(party, _ int) *big.Int { return big.NewInt(990 + int64(party)) },
		Attack: func(seed int64) adversary.Attack { return adversary.Flood(seed, 12, 24) },
	})
	if v := res.Judge([]int{0, 1, 2, 3, 4}); !v.Agree || !v.Valid {
		t.Fatalf("honest parties under kill+flood: %s", v.Why)
	}

	// The flood is gone; anything it forced the cluster to hold must be
	// reclaimable now.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > uint64(n)*heapBudgetParty {
		t.Fatalf("retained heap %d MiB exceeds %d MiB budget (%d MiB/party × %d)",
			ms.HeapAlloc>>20, uint64(n)*heapBudgetParty>>20, heapBudgetParty>>20, n)
	}
}
