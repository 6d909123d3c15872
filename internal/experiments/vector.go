package experiments

import (
	"fmt"
	"math/big"
	"math/rand"

	ca "convexagreement"
)

// E14VectorScaling measures the multidimensional product construction
// (AgreeVector): d coordinate-wise Π_ℤ instances composed in parallel.
// Vaidya–Garg [50] defined CA for multidimensional inputs; the product
// construction gives the weaker box validity but showcases the parallel
// composition payoff — bits grow ≈ d× while rounds stay flat.
func E14VectorScaling() Table {
	n := 7
	ell := 1 << 10
	dims := []int{1, 2, 4, 8}
	tbl := Table{
		ID:     "E14",
		Title:  fmt.Sprintf("Vector (box-validity) CA vs dimension at n=%d, ℓ=%d per coordinate", n, ell),
		Claim:  "product construction over mux: bits ≈ d × scalar, rounds ≈ scalar (parallel composition)",
		Header: []string{"dim", "honest_bits", "bits_vs_d1", "rounds", "rounds_vs_d1"},
	}
	rng := rand.New(rand.NewSource(14))
	bound := new(big.Int).Lsh(big.NewInt(1), uint(ell))
	var base *ca.VectorResult
	for _, d := range dims {
		inputs := make([][]*big.Int, n)
		for i := range inputs {
			vec := make([]*big.Int, d)
			for c := range vec {
				vec[c] = new(big.Int).Rand(rng, bound)
			}
			inputs[i] = vec
		}
		res, err := ca.AgreeVector(inputs, ca.Options{Seed: 14})
		if err != nil {
			panic(fmt.Sprintf("experiments: vector: %v", err))
		}
		if base == nil {
			base = res
		}
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%d", d),
			fmtBits(res.HonestBits),
			fmt.Sprintf("%.2fx", float64(res.HonestBits)/float64(base.HonestBits)),
			fmt.Sprintf("%d", res.Rounds),
			fmt.Sprintf("%.2fx", float64(res.Rounds)/float64(base.Rounds)),
		})
	}
	return tbl
}
