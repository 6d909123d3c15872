package experiments

import (
	"fmt"
	"math/big"
	"math/rand"

	ca "convexagreement"

	"convexagreement/internal/adversary"
	"convexagreement/internal/baplus"
	"convexagreement/internal/sim"
	"convexagreement/internal/testutil"
)

// E4BAPlusProperties validates Theorem 6 statistically: across adversarial
// campaigns, Π_BA+ never violates Agreement or Intrusion Tolerance, and
// never outputs ⊥ when n−2t honest parties share an input (Bounded
// Pre-Agreement). Columns count runs and observed violations (the claim is
// all-zero violation columns).
func E4BAPlusProperties() Table {
	n, t := 10, 3
	trials := 6
	tbl := Table{
		ID:     "E4",
		Title:  fmt.Sprintf("Π_BA+ property campaign at n=%d, t=%d (%d trials/strategy)", n, t, trials),
		Claim:  "Thm 6: Agreement, Intrusion Tolerance, Bounded Pre-Agreement under every strategy",
		Header: []string{"strategy", "runs", "agree_viol", "intrusion_viol", "preagree_viol", "bot_rate_no_preagree"},
	}
	for _, strat := range adversary.Catalog() {
		var runs, agreeViol, intrusionViol, preViol, noPreRuns, noPreBot int
		for trial := 0; trial < trials; trial++ {
			for _, preAgree := range []bool{true, false} {
				runs++
				rng := rand.New(rand.NewSource(int64(trial)*31 + 7))
				corrupt := map[int]sim.Behavior{1: strat.Build(rng.Int63()), 5: strat.Build(rng.Int63()), 8: strat.Build(rng.Int63())}
				inputs := make([][]byte, n)
				honest := map[string]bool{}
				shared := 0
				for i := range inputs {
					if _, bad := corrupt[i]; bad {
						continue
					}
					if preAgree && shared < n-2*t {
						inputs[i] = []byte("shared-value")
						shared++
					} else {
						inputs[i] = []byte(fmt.Sprintf("solo-%d-%d", trial, i))
					}
					honest[string(inputs[i])] = true
				}
				type out struct {
					val string
					ok  bool
				}
				res, err := testutil.Run(sim.Config{N: n, T: t}, corrupt,
					func(env *sim.Env) (out, error) {
						v, ok, err := baplus.Plus(env, "e4", inputs[env.ID()])
						return out{string(v), ok}, err
					})
				if err != nil {
					panic(err)
				}
				agreed, err := testutil.AgreeValue(res)
				if err != nil {
					agreeViol++
					continue
				}
				if agreed.ok && !honest[agreed.val] {
					intrusionViol++
				}
				if preAgree && !agreed.ok {
					preViol++
				}
				if !preAgree {
					noPreRuns++
					if !agreed.ok {
						noPreBot++
					}
				}
			}
		}
		tbl.Rows = append(tbl.Rows, []string{
			strat.Name,
			fmt.Sprintf("%d", runs),
			fmt.Sprintf("%d", agreeViol),
			fmt.Sprintf("%d", intrusionViol),
			fmt.Sprintf("%d", preViol),
			fmt.Sprintf("%d/%d", noPreBot, noPreRuns),
		})
	}
	return tbl
}

// E7ValidityCampaign sweeps protocol × adversary × input distribution and
// counts Convex Validity / Agreement violations (Definition 1) — the
// all-zero table is Theorems 2/4/5 + Corollary 1 in aggregate.
func E7ValidityCampaign() Table {
	n := 7
	protos := []ca.Protocol{ca.ProtoOptimal, ca.ProtoOptimalNat, ca.ProtoHighCost, ca.ProtoBroadcast}
	kinds := ca.AdversaryKinds()
	tbl := Table{
		ID:     "E7",
		Title:  fmt.Sprintf("Convex Validity campaign at n=%d, t=%d", n, defaultT(n)),
		Claim:  "Defn 1 / Thms 2,4,5 / Cor 1: zero violations of Agreement and Convex Validity in every cell",
		Header: []string{"protocol", "distribution", "runs", "violations"},
	}
	rng := rand.New(rand.NewSource(7))
	for _, proto := range protos {
		for _, dist := range []string{"uniform", "clustered"} {
			runs, viol := 0, 0
			for _, kind := range kinds {
				runs++
				var inputs []*big.Int
				if dist == "uniform" {
					inputs = randInputs(rng, n, 24)
				} else {
					inputs = clusteredInputs(rng, n, 1_000_000, 50)
				}
				corr := map[int]ca.Corruption{
					1: {Kind: kind, Input: big.NewInt(0)},
					4: {Kind: kind, Input: new(big.Int).Lsh(big.NewInt(1), 40)},
				}
				var honest []*big.Int
				for i, v := range inputs {
					if _, bad := corr[i]; !bad {
						honest = append(honest, v)
					}
				}
				res, err := ca.Agree(inputs, ca.Options{Protocol: proto, Corruptions: corr, Seed: rng.Int63()})
				if err != nil || !ca.InHull(res.Output, honest) {
					viol++
				}
			}
			tbl.Rows = append(tbl.Rows, []string{
				string(proto), dist, fmt.Sprintf("%d", runs), fmt.Sprintf("%d", viol),
			})
		}
	}
	return tbl
}

// E10AdversaryAblation fixes n, t, ℓ and sweeps adversary strategies: the
// paper observes (§1) that prior protocols' communication is adversarially
// inflatable because honest parties forward byzantine data; Π_ℕ's honest
// bits stay essentially flat across strategies, as does the baseline's ℓn²
// cost — but note the baseline pays its quadratic price even with no
// adversary at all.
func E10AdversaryAblation() Table {
	n := 7
	ell := 1 << 13
	tbl := Table{
		ID:     "E10",
		Title:  fmt.Sprintf("Adversary-strategy ablation at n=%d, ℓ=%d", n, ell),
		Claim:  "§1: honest communication of Π_ℕ is stable (≈ℓn) under every strategy; broadcast baseline sits at ≈ℓn² regardless",
		Header: []string{"strategy", "optimal_bits", "optimal_rounds", "broadcast_bits", "corrupt_bits_opt"},
	}
	kinds := append([]ca.AdversaryKind{"none"}, ca.AdversaryKinds()...)
	rng := rand.New(rand.NewSource(10))
	inputs := randInputs(rng, n, ell)
	for _, kind := range kinds {
		corr := map[int]ca.Corruption{}
		if kind != "none" {
			corr = map[int]ca.Corruption{
				2: {Kind: kind, Input: big.NewInt(1)},
				5: {Kind: kind, Input: new(big.Int).Lsh(big.NewInt(1), uint(ell-1))},
			}
		}
		opt := mustAgree(inputs, ca.Options{Protocol: ca.ProtoOptimalNat, Corruptions: corr, Seed: 11})
		bc := mustAgree(inputs, ca.Options{Protocol: ca.ProtoBroadcast, Corruptions: corr, Seed: 11})
		tbl.Rows = append(tbl.Rows, []string{
			string(kind),
			fmtBits(opt.HonestBits),
			fmt.Sprintf("%d", opt.Rounds),
			fmtBits(bc.HonestBits),
			fmtBits(opt.CorruptBits),
		})
	}
	return tbl
}
