package experiments

import (
	"fmt"
	"math/big"
	"math/rand"

	ca "convexagreement"

	"convexagreement/internal/aa"
	"convexagreement/internal/baplus"
	"convexagreement/internal/sim"
	"convexagreement/internal/testutil"
	"convexagreement/internal/transport"
)

// E12CAvsAA contrasts Convex Agreement with its historical ancestor,
// Approximate Agreement (§1.1 of the paper): AA pays Θ(ℓn²) bits per
// iteration and only ever reaches ε-agreement, while CA reaches *exact*
// agreement in O(ℓn + poly(n, κ)) bits. For long inputs the exact protocol
// is cheaper than even coarse approximation.
func E12CAvsAA() Table {
	n := 7
	t := defaultT(n)
	ells := []int{16, 64, 4096, 16384, 65536}
	tbl := Table{
		ID:     "E12",
		Title:  fmt.Sprintf("Convex Agreement vs Approximate Agreement at n=%d, t=%d", n, t),
		Claim:  "§1.1/§1.2: AA = Θ(ℓn²)·log(D/ε) bits for ε-agreement; CA = exact agreement at O(ℓn + poly(n,κ)); CA wins for long inputs",
		Header: []string{"ell_bits", "aa_precision", "aa_bits", "aa_rounds", "ca_bits", "ca_rounds", "aa/ca_bits"},
	}
	rng := rand.New(rand.NewSource(12))
	for _, ell := range ells {
		inputs := randInputs(rng, n, ell)
		diameter := new(big.Int).Lsh(big.NewInt(1), uint(ell))
		// Full precision (ε = 1) for short inputs; a realistic 16 most
		// significant bits of precision (ε = D/2^16) for long ones — AA's
		// iteration count is log₂(D/ε), so ε = 1 at ℓ = 65536 would mean
		// 65539 all-to-all iterations.
		eps := big.NewInt(1)
		precision := "full (ε=1)"
		if ell > 64 {
			eps = new(big.Int).Lsh(big.NewInt(1), uint(ell-16))
			precision = "16 bits (ε=D/2^16)"
		}
		aaRes := runAA(n, t, inputs, diameter, eps)
		caRes := mustAgree(inputs, ca.Options{Protocol: ca.ProtoOptimalNat, Seed: 12})
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%d", ell),
			precision,
			fmtBits(aaRes.HonestBits),
			fmt.Sprintf("%d", aaRes.Rounds),
			fmtBits(caRes.HonestBits),
			fmt.Sprintf("%d", caRes.Rounds),
			fmt.Sprintf("%.2fx", float64(aaRes.HonestBits)/float64(caRes.HonestBits)),
		})
	}
	return tbl
}

// runAA executes one Approximate Agreement instance over the simulator and
// returns its cost report.
func runAA(n, t int, inputs []*big.Int, diameter, eps *big.Int) *sim.Report {
	res, err := testutil.Run(sim.Config{N: n, T: t}, nil,
		func(env *sim.Env) (*big.Int, error) {
			return aa.Run(env, "aa", inputs[env.ID()], diameter, eps)
		})
	if err != nil {
		panic(fmt.Sprintf("experiments: aa: %v", err))
	}
	return res.Report
}

// E11ParallelComposition is the round-complexity ablation for the
// broadcast baseline: composing its n broadcast instances in parallel
// (sessmux.Parallel) leaves the Θ(ℓn²) bit cost untouched but collapses the
// round count from n sequential broadcasts to one — the gap the
// synchronous model's parallel-composition folklore predicts (and a gap
// the paper's protocol never pays, since it runs O(log n) sequential
// building blocks in the first place).
func E11ParallelComposition() Table {
	ell := 1 << 12
	ns := []int{4, 7, 10, 13}
	tbl := Table{
		ID:     "E11",
		Title:  fmt.Sprintf("Ablation: sequential vs parallel broadcast-CA at ℓ=%d bits", ell),
		Claim:  "parallel composition: same Θ(ℓn²) bits, rounds drop from Θ(n)·ROUNDS(BC) to ROUNDS(BC); optimal protocol shown for scale",
		Header: []string{"n", "seq_rounds", "par_rounds", "round_drop", "seq_bits", "par_bits", "optimal_rounds"},
	}
	rng := rand.New(rand.NewSource(11))
	for _, n := range ns {
		inputs := randInputs(rng, n, ell)
		seq := mustAgree(inputs, ca.Options{Protocol: ca.ProtoBroadcast, Seed: 11})
		par := mustAgree(inputs, ca.Options{Protocol: ca.ProtoBroadcastParallel, Seed: 11})
		opt := mustAgree(inputs, ca.Options{Protocol: ca.ProtoOptimalNat, Seed: 11})
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", seq.Rounds),
			fmt.Sprintf("%d", par.Rounds),
			fmt.Sprintf("%.1fx", float64(seq.Rounds)/float64(par.Rounds)),
			fmtBits(seq.HonestBits),
			fmtBits(par.HonestBits),
			fmt.Sprintf("%d", opt.Rounds),
		})
	}
	return tbl
}

// E16DispersalAblation isolates the paper's key dispersal mechanism: the
// same Π_ℓBA+ agreement with Reed-Solomon + Merkle dispersal (Long) versus
// naive whole-value rebroadcast (LongNaive), on a value all honest parties
// share. Coded dispersal is the entire difference between the paper's
// O(ℓn) and the prior works' Θ(ℓn²).
func E16DispersalAblation() Table {
	ellBytes := 16 << 10
	ns := []int{4, 7, 10, 13}
	tbl := Table{
		ID:     "E16",
		Title:  fmt.Sprintf("Dispersal ablation: RS+Merkle vs naive rebroadcast in Π_ℓBA+ (ℓ=%d bits)", 8*ellBytes),
		Claim:  "Thm 1 mechanism: coded dispersal keeps the ℓ-term at O(ℓn); removing it degrades to Θ(ℓn²)",
		Header: []string{"n", "coded_bits", "naive_bits", "naive/coded", "coded_per_ln", "naive_per_ln"},
	}
	value := make([]byte, ellBytes)
	rand.New(rand.NewSource(16)).Read(value)
	for _, n := range ns {
		coded := runLBA(n, value, baplusLong)
		naive := runLBA(n, value, baplusLongNaive)
		ln := float64(8*ellBytes) * float64(n)
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%d", n),
			fmtBits(coded),
			fmtBits(naive),
			fmt.Sprintf("%.1fx", float64(naive)/float64(coded)),
			fmt.Sprintf("%.2f", float64(coded)/ln),
			fmt.Sprintf("%.2f", float64(naive)/ln),
		})
	}
	return tbl
}

type lbaRunner func(env transport.Net, tag string, input []byte) ([]byte, bool, error)

func baplusLong(env transport.Net, tag string, input []byte) ([]byte, bool, error) {
	return baplus.Long(env, tag, input)
}

func baplusLongNaive(env transport.Net, tag string, input []byte) ([]byte, bool, error) {
	return baplus.LongNaive(env, tag, input)
}

// runLBA measures one Π_ℓBA+ instance where all honest parties share value.
func runLBA(n int, value []byte, proto lbaRunner) int64 {
	t := defaultT(n)
	res, err := testutil.Run(sim.Config{N: n, T: t}, nil,
		func(env *sim.Env) (bool, error) {
			_, ok, err := proto(env, "lba", value)
			return ok, err
		})
	if err != nil {
		panic(fmt.Sprintf("experiments: lba: %v", err))
	}
	return res.Report.HonestBits
}
