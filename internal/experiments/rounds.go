package experiments

import (
	"fmt"
	"math"
	"math/rand"

	ca "convexagreement"
)

// E3Rounds measures round complexity as n grows at fixed ℓ: Π_ℤ runs in
// O(n log n) rounds (O(log n) iterations, each dominated by the O(n)-round
// phase-king BA), HIGHCOSTCA in O(n) and broadcast-CA in O(n²) (n
// sequential broadcasts of O(n) rounds each).
func E3Rounds() Table {
	ell := 1 << 10
	ns := []int{4, 7, 10, 13, 16}
	tbl := Table{
		ID:     "E3",
		Title:  fmt.Sprintf("Round complexity vs n at ℓ=%d bits", ell),
		Claim:  "Cor 2: ROUNDS(Π_Z) = O(n log n); Thm 3: ROUNDS(HIGHCOSTCA) = O(n); broadcast baseline O(n²)",
		Header: []string{"n", "t", "optimal_rounds", "opt/(n·log2n)", "highcost_rounds", "hc/n", "broadcast_rounds", "bc/n^2"},
	}
	rng := rand.New(rand.NewSource(3))
	for _, n := range ns {
		t := defaultT(n)
		inputs := randInputs(rng, n, ell)
		opt := mustAgree(inputs, ca.Options{Protocol: ca.ProtoOptimalNat, Seed: 3})
		hc := mustAgree(inputs, ca.Options{Protocol: ca.ProtoHighCost, Seed: 3})
		bc := mustAgree(inputs, ca.Options{Protocol: ca.ProtoBroadcast, Seed: 3})
		nlogn := float64(n) * log2(float64(n))
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", t),
			fmt.Sprintf("%d", opt.Rounds),
			fmt.Sprintf("%.1f", float64(opt.Rounds)/nlogn),
			fmt.Sprintf("%d", hc.Rounds),
			fmt.Sprintf("%.1f", float64(hc.Rounds)/float64(n)),
			fmt.Sprintf("%d", bc.Rounds),
			fmt.Sprintf("%.2f", float64(bc.Rounds)/float64(n*n)),
		})
	}
	return tbl
}

// E8HighCostCA reproduces Theorem 3 in isolation: BITS(HIGHCOSTCA) = O(ℓn³)
// and ROUNDS = O(n). The bits column should grow ≈ (n'/n)³ between rows and
// the per-ℓ column should stay flat when ℓ doubles.
func E8HighCostCA() Table {
	ns := []int{4, 7, 10, 13}
	ells := []int{1 << 11, 1 << 12}
	tbl := Table{
		ID:     "E8",
		Title:  "HIGHCOSTCA cost scaling",
		Claim:  "Thm 3: BITS = O(ℓ·n³), ROUNDS = O(n)",
		Header: []string{"n", "ell_bits", "honest_bits", "bits/(ell·n^3)", "rounds", "rounds/n"},
	}
	rng := rand.New(rand.NewSource(8))
	for _, n := range ns {
		for _, ell := range ells {
			inputs := randInputs(rng, n, ell)
			res := mustAgree(inputs, ca.Options{Protocol: ca.ProtoHighCost, Seed: 8})
			tbl.Rows = append(tbl.Rows, []string{
				fmt.Sprintf("%d", n),
				fmt.Sprintf("%d", ell),
				fmtBits(res.HonestBits),
				fmt.Sprintf("%.3f", float64(res.HonestBits)/(float64(ell)*float64(n*n*n))),
				fmt.Sprintf("%d", res.Rounds),
				fmt.Sprintf("%.1f", float64(res.Rounds)/float64(n)),
			})
		}
	}
	return tbl
}

// E9BitsVsBlocks contrasts the §3 bit-granular search (O(log ℓ) iterations)
// with the §4 block-granular search (O(log n²) iterations) on identical
// very long inputs: the blocks variant needs fewer rounds at comparable
// bits — the reason Π_ℕ switches representation for ℓ > n².
func E9BitsVsBlocks() Table {
	n := 7
	n2 := n * n
	ks := []int{256, 1024, 4096}
	tbl := Table{
		ID:     "E9",
		Title:  fmt.Sprintf("FIXEDLENGTHCA vs FIXEDLENGTHCABLOCKS at n=%d (ℓ multiples of n²=%d)", n, n2),
		Claim:  "Thm 2 vs Thm 4: search iterations O(log ℓ) vs O(log n²) ⇒ fewer rounds for blocks at long ℓ, both O(ℓn) bits",
		Header: []string{"ell_bits", "bitwise_rounds", "blocks_rounds", "round_ratio", "bitwise_bits", "blocks_bits"},
	}
	rng := rand.New(rand.NewSource(9))
	for _, k := range ks {
		ell := n2 * k
		inputs := randInputs(rng, n, ell)
		bitwise := mustAgree(inputs, ca.Options{Protocol: ca.ProtoFixedLength, Width: ell, Seed: 9})
		blocks := mustAgree(inputs, ca.Options{Protocol: ca.ProtoFixedLengthBlocks, Width: ell, Seed: 9})
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%d", ell),
			fmt.Sprintf("%d", bitwise.Rounds),
			fmt.Sprintf("%d", blocks.Rounds),
			fmt.Sprintf("%.2fx", float64(bitwise.Rounds)/float64(blocks.Rounds)),
			fmtBits(bitwise.HonestBits),
			fmtBits(blocks.HonestBits),
		})
	}
	return tbl
}

func log2(x float64) float64 { return math.Log2(x) }
