package experiments

import (
	"fmt"
	"math/big"

	ca "convexagreement"
	"convexagreement/internal/adversary"
)

// E19 is the active-adversary sweep: where E17's faults are *passive* link
// disturbances (drops, delays, corruption) confined to honest parties'
// links, E19 gives the adversary a live attacker goroutine on the
// deployment stack. One corrupt party floods the cluster with duplicate,
// oversize, or bursty garbage traffic — the resource-exhaustion attacks of
// adversary.ActiveCatalog, hosted by the harness's attacker party — while
// the honest parties run Π_ℤ to completion. Agreement and convex validity
// over the honest parties must survive every attack, and identically-seeded
// dual runs must keep seed-exact transcript digests, proving the ingress
// defenses (admission, shedding, dedup) are themselves deterministic.

// e19MaxRounds bounds every run; a protocol starved to a standstill
// surfaces as ErrRoundLimit instead of hanging the experiment.
const e19MaxRounds = 4000

// E19IngressSweep measures robustness of the deployment stack under active
// resource-exhaustion adversaries.
func E19IngressSweep() Table {
	ns := []int{7, 16, 31}
	// The attacks are adversary.ActiveCatalog's; the combined case runs the
	// flood with link drops on the attacker's links as well.
	scenarios := adversary.ActiveCatalog()
	scenarios = append(scenarios, adversary.ActiveStrategy{Name: "flood+drop", Build: scenarios[0].Build})
	tab := Table{
		ID:     "E19",
		Title:  "Active-adversary ingress sweep over the deployment transport",
		Claim:  "with one corrupt party mounting live flood, oversize, and burst attacks (plus link drops in the combined case), Π_ℤ keeps agreement and convex validity over the honest parties, and identically-seeded runs replay identical transcripts",
		Header: []string{"scenario", "n", "t", "agree", "validity", "replay", "rounds"},
	}
	for _, sc := range scenarios {
		for _, n := range ns {
			attacker := n - 1
			cfg := ca.FaultConfig{Seed: int64(3100 + n), MaxRounds: e19MaxRounds}
			if sc.Name == "flood+drop" {
				cfg.Rules = []ca.FaultRule{
					{Kind: ca.FaultDrop, From: attacker, To: ca.AnyParty, Prob: 0.4},
					{Kind: ca.FaultDrop, From: ca.AnyParty, To: attacker, Prob: 0.2},
				}
			}
			c := Cluster{
				N: n, Faults: cfg, Instances: 1, Attack: sc.Build,
				Input: func(party, _ int) *big.Int { return big.NewInt(990 + int64(party)) },
			}
			a, b := mustRun(c), mustRun(c)
			v := a.Judge(allBut(n, attacker))
			tab.Rows = append(tab.Rows, []string{
				sc.Name, fmt.Sprint(n), fmt.Sprint(defaultT(n)),
				mark(v.Agree), mark(v.Valid), mark(SameRun(a, b) == nil), fmt.Sprint(a.Parties[0].Rounds),
			})
		}
	}
	return tab
}
