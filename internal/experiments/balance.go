package experiments

import (
	"fmt"
	"math/rand"

	ca "convexagreement"
)

// E15LoadBalance measures per-party communication load. The paper's cost
// measure BITS counts *total* honest bits; this table shows how that total
// distributes: in Π_ℕ the RS dispersal gives every party an O(ℓ/n)-sized
// share to relay, so the max/mean ratio stays small, while in the broadcast
// baseline each sender ships its whole ℓ-bit value to everyone — but every
// party is a sender once, so the baseline is balanced too, just n× heavier.
// HIGHCOSTCA floods symmetrically. A protocol could hide an O(ℓn)
// *per-party* hotspot inside an O(ℓn²) total; this table shows none does.
func E15LoadBalance() Table {
	n := 7
	ell := 1 << 14
	tbl := Table{
		ID:     "E15",
		Title:  fmt.Sprintf("Per-party honest load at n=%d, ℓ=%d", n, ell),
		Claim:  "load is balanced: max-party/mean-party bits stays O(1) for every protocol; totals differ by the ℓn vs ℓn² vs ℓn³ law",
		Header: []string{"protocol", "total_bits", "mean_party", "max_party", "max/mean"},
	}
	protos := []ca.Protocol{ca.ProtoOptimalNat, ca.ProtoBroadcast, ca.ProtoHighCost}
	rng := rand.New(rand.NewSource(15))
	inputs := randInputs(rng, n, ell)
	for _, proto := range protos {
		res := mustAgree(inputs, ca.Options{Protocol: proto, Seed: 15})
		var max, sum int64
		for _, b := range res.BitsByParty {
			sum += b
			if b > max {
				max = b
			}
		}
		mean := float64(sum) / float64(n)
		tbl.Rows = append(tbl.Rows, []string{
			string(proto),
			fmtBits(res.HonestBits),
			fmtBits(int64(mean)),
			fmtBits(max),
			fmt.Sprintf("%.2f", float64(max)/mean),
		})
	}
	return tbl
}
