// Benchmark harness: one benchmark per reproduction experiment (E1–E18 of
// DESIGN.md §3 / EXPERIMENTS.md). Each times a representative protocol
// instance of its experiment, reporting the paper's cost measures as custom
// metrics (bits, bits/(ℓn), rounds); the tables themselves are pinned by
// internal/experiments' TestETables.
//
// Run with: go test -bench=. -benchmem
package convexagreement_test

import (
	"fmt"
	"math/big"
	"math/rand"
	"runtime"
	"testing"

	ca "convexagreement"

	"convexagreement/internal/experiments"
)

// benchInputs draws a deterministic input vector.
func benchInputs(n, bits int, seed int64) []*big.Int {
	rng := rand.New(rand.NewSource(seed))
	bound := new(big.Int).Lsh(big.NewInt(1), uint(bits))
	out := make([]*big.Int, n)
	for i := range out {
		out[i] = new(big.Int).Rand(rng, bound)
	}
	return out
}

// runAgree executes one instance and pushes its cost measures into the
// benchmark's custom metrics.
func runAgree(b *testing.B, inputs []*big.Int, opts ca.Options) *ca.Result {
	b.Helper()
	res, err := ca.Agree(inputs, opts)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func reportCost(b *testing.B, res *ca.Result, ell, n int) {
	b.ReportMetric(float64(res.HonestBits), "honest_bits")
	b.ReportMetric(float64(res.Rounds), "rounds")
	if ell > 0 {
		b.ReportMetric(float64(res.HonestBits)/float64(ell*n), "bits/(ℓn)")
	}
}

// BenchmarkE1_BitsVsEll stands for E1 (Corollary 2 headline: linear-in-ℓ
// communication) and times Π_ℤ on a 2^16-bit instance at n=10.
func BenchmarkE1_BitsVsEll(b *testing.B) {
	const n, ell = 10, 1 << 16
	inputs := benchInputs(n, ell, 1)
	var res *ca.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = runAgree(b, inputs, ca.Options{Protocol: ca.ProtoOptimal, Seed: 1})
	}
	reportCost(b, res, ell, n)
}

// BenchmarkE2_BitsVsN stands for E2 (protocol-vs-baseline ordering) and
// times the three protocols on one shared instance for direct comparison.
func BenchmarkE2_BitsVsN(b *testing.B) {
	const n, ell = 7, 1 << 14
	inputs := benchInputs(n, ell, 2)
	for _, proto := range []ca.Protocol{ca.ProtoOptimalNat, ca.ProtoBroadcast, ca.ProtoHighCost} {
		proto := proto
		b.Run(string(proto), func(b *testing.B) {
			var res *ca.Result
			for i := 0; i < b.N; i++ {
				res = runAgree(b, inputs, ca.Options{Protocol: proto, Seed: 2})
			}
			reportCost(b, res, ell, n)
		})
	}
}

// BenchmarkE3_Rounds stands for E3 (round complexity O(n log n) vs O(n)
// vs O(n²)) and times the round-dominant small-ℓ regime.
func BenchmarkE3_Rounds(b *testing.B) {
	const n, ell = 10, 1 << 10
	inputs := benchInputs(n, ell, 3)
	var res *ca.Result
	for i := 0; i < b.N; i++ {
		res = runAgree(b, inputs, ca.Options{Protocol: ca.ProtoOptimalNat, Seed: 3})
	}
	reportCost(b, res, ell, n)
}

// BenchmarkE4_BAPlusProperties stands for E4 (Theorem 6 property campaign;
// the table's violation columns must be all-zero) and times the whole
// campaign.
func BenchmarkE4_BAPlusProperties(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := experiments.E4BAPlusProperties()
		for _, row := range tbl.Rows {
			for _, cell := range row[2:5] {
				if cell != "0" {
					b.Fatalf("property violation recorded: %v", row)
				}
			}
		}
	}
}

// BenchmarkE5_LBAPlusBreakdown stands for E5 (Theorem 1 cost split) and
// times Π_ℕ on the clustered long-prefix workload that exercises dispersal.
func BenchmarkE5_LBAPlusBreakdown(b *testing.B) {
	const n, ell = 7, 1 << 16
	base := new(big.Int).Lsh(big.NewInt(1), ell-1)
	rng := rand.New(rand.NewSource(5))
	inputs := make([]*big.Int, n)
	for i := range inputs {
		inputs[i] = new(big.Int).Add(base, big.NewInt(rng.Int63n(1<<16)))
	}
	var res *ca.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = runAgree(b, inputs, ca.Options{Protocol: ca.ProtoOptimalNat, Seed: 5})
	}
	reportCost(b, res, ell, n)
}

// BenchmarkE6_Threshold stands for E6 (the ℓ = Ω(κ·n·log²n) optimality
// threshold) and times an instance right at the crossover region.
func BenchmarkE6_Threshold(b *testing.B) {
	const n, ell = 7, 1 << 14
	inputs := benchInputs(n, ell, 6)
	var res *ca.Result
	for i := 0; i < b.N; i++ {
		res = runAgree(b, inputs, ca.Options{Protocol: ca.ProtoOptimalNat, Seed: 6})
	}
	reportCost(b, res, ell, n)
}

// BenchmarkE7_ValidityCampaign stands for E7 (Definition 1 under attack;
// violations column must be all-zero) and times one ghost-attacked run.
func BenchmarkE7_ValidityCampaign(b *testing.B) {
	const n, ell = 7, 24
	inputs := benchInputs(n, ell, 7)
	corr := map[int]ca.Corruption{
		1: {Kind: ca.AdvGhost, Input: big.NewInt(0)},
		4: {Kind: ca.AdvGhost, Input: new(big.Int).Lsh(big.NewInt(1), 40)},
	}
	var res *ca.Result
	for i := 0; i < b.N; i++ {
		res = runAgree(b, inputs, ca.Options{Protocol: ca.ProtoOptimal, Corruptions: corr, Seed: 7})
	}
	reportCost(b, res, ell, n)
}

// BenchmarkE8_HighCostCA stands for E8 (Theorem 3: O(ℓn³) bits, O(n)
// rounds) and times HIGHCOSTCA directly.
func BenchmarkE8_HighCostCA(b *testing.B) {
	const n, ell = 10, 1 << 12
	inputs := benchInputs(n, ell, 8)
	var res *ca.Result
	for i := 0; i < b.N; i++ {
		res = runAgree(b, inputs, ca.Options{Protocol: ca.ProtoHighCost, Seed: 8})
	}
	reportCost(b, res, ell, n)
}

// BenchmarkE9_BitsVsBlocks stands for E9 (§3 bit search vs §4 block
// search) and times both fixed-length variants on one long instance.
func BenchmarkE9_BitsVsBlocks(b *testing.B) {
	const n = 7
	const ell = n * n * 1024
	inputs := benchInputs(n, ell, 9)
	for _, proto := range []ca.Protocol{ca.ProtoFixedLength, ca.ProtoFixedLengthBlocks} {
		proto := proto
		b.Run(string(proto), func(b *testing.B) {
			var res *ca.Result
			for i := 0; i < b.N; i++ {
				res = runAgree(b, inputs, ca.Options{Protocol: proto, Width: ell, Seed: 9})
			}
			reportCost(b, res, ell, n)
		})
	}
}

// BenchmarkE11_ParallelComposition stands for E11 (parallel vs sequential
// broadcast baseline) and times the parallel-composed variant.
func BenchmarkE11_ParallelComposition(b *testing.B) {
	const n, ell = 7, 1 << 12
	inputs := benchInputs(n, ell, 11)
	var res *ca.Result
	for i := 0; i < b.N; i++ {
		res = runAgree(b, inputs, ca.Options{Protocol: ca.ProtoBroadcastParallel, Seed: 11})
	}
	reportCost(b, res, ell, n)
}

// BenchmarkE12_CAvsAA stands for E12 (exact CA vs ε-approximate AA) and
// times synchronous AA at full precision on a short instance.
func BenchmarkE12_CAvsAA(b *testing.B) {
	inputs := benchInputs(7, 20, 12)
	var res *ca.ApproxResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = ca.ApproxAgree(inputs, new(big.Int).Lsh(big.NewInt(1), 20), big.NewInt(1), ca.Options{Seed: 12})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.HonestBits), "honest_bits")
	b.ReportMetric(float64(res.Rounds), "rounds")
}

// BenchmarkE13_AsyncAA stands for E13 (asynchronous AA under adversarial
// schedulers) and times one async instance at ε=16.
func BenchmarkE13_AsyncAA(b *testing.B) {
	inputs := benchInputs(7, 16, 13)
	var res *ca.ApproxResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = ca.AsyncApproxAgree(inputs, new(big.Int).Lsh(big.NewInt(1), 16), big.NewInt(16),
			ca.AsyncOptions{Seed: 13})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Deliveries), "deliveries")
}

// BenchmarkE14_VectorScaling stands for E14 (vector CA over parallel
// composition) and times a 4-dimensional instance.
func BenchmarkE14_VectorScaling(b *testing.B) {
	const n, d, ell = 7, 4, 256
	rng := rand.New(rand.NewSource(14))
	bound := new(big.Int).Lsh(big.NewInt(1), ell)
	inputs := make([][]*big.Int, n)
	for i := range inputs {
		vec := make([]*big.Int, d)
		for c := range vec {
			vec[c] = new(big.Int).Rand(rng, bound)
		}
		inputs[i] = vec
	}
	var res *ca.VectorResult
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = ca.AgreeVector(inputs, ca.Options{Seed: 14})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.HonestBits), "honest_bits")
	b.ReportMetric(float64(res.Rounds), "rounds")
}

// BenchmarkE15_LoadBalance stands for E15 (per-party load distribution).
func BenchmarkE15_LoadBalance(b *testing.B) {
	const n, ell = 7, 1 << 14
	inputs := benchInputs(n, ell, 15)
	var res *ca.Result
	for i := 0; i < b.N; i++ {
		res = runAgree(b, inputs, ca.Options{Protocol: ca.ProtoOptimalNat, Seed: 15})
	}
	var max int64
	for _, bits := range res.BitsByParty {
		if bits > max {
			max = bits
		}
	}
	b.ReportMetric(float64(max), "max_party_bits")
}

// BenchmarkE16_DispersalAblation stands for E16 (RS+Merkle vs naive
// dispersal inside Π_ℓBA+).
func BenchmarkE16_DispersalAblation(b *testing.B) {
	const n, ell = 7, 1 << 16
	inputs := make([]*big.Int, n)
	shared := benchInputs(1, ell, 16)[0]
	for i := range inputs {
		inputs[i] = shared
	}
	var res *ca.Result
	for i := 0; i < b.N; i++ {
		res = runAgree(b, inputs, ca.Options{Protocol: ca.ProtoOptimalNat, Seed: 16})
	}
	reportCost(b, res, ell, n)
}

// BenchmarkE17_FaultSweep stands for E17 (robustness under message-level
// faults) and times one ProtoOptimal run with drops and delays injected on
// the last party's links via the public fault wrapper.
func BenchmarkE17_FaultSweep(b *testing.B) {
	const n = 7
	c := experiments.Cluster{
		N: n, Instances: 1,
		Faults: ca.FaultConfig{
			Seed: 17,
			Rules: []ca.FaultRule{
				{Kind: ca.FaultDrop, From: ca.AnyParty, To: n - 1, Prob: 0.25},
				{Kind: ca.FaultDelay, From: n - 1, To: ca.AnyParty, Prob: 0.25, DelayRounds: 2},
			},
			MaxRounds: 4000,
		},
		Input: func(party, _ int) *big.Int { return big.NewInt(int64(990 + party)) },
	}
	for i := 0; i < b.N; i++ {
		// All faults target party n−1 (within the t budget); the clean
		// parties must finish in agreement.
		if v := mustRunCluster(b, c).Judge([]int{0, 1, 2, 3, 4, 5}); !v.Agree || !v.Valid {
			b.Fatal(v.Why)
		}
	}
}

// BenchmarkE18_CrashRecovery stands for E18 (checkpointed crash recovery)
// and times one supervised channet session that is killed once mid-instance
// and resumed from its write-ahead log, reporting the restart count.
func BenchmarkE18_CrashRecovery(b *testing.B) {
	const n, K, instances = 4, 3, 2
	input := func(party, seq int) *big.Int { return big.NewInt(int64(100*seq + 3*party + 1)) }
	// The kill lands half-way through the run as the simulator measures it
	// for the same inputs: a constant round outlives the protocol it was
	// read off, and a kill past the end never fires.
	total := 0
	for seq := 0; seq < instances; seq++ {
		inputs := make([]*big.Int, n)
		for party := range inputs {
			inputs[party] = input(party, seq)
		}
		total += runAgree(b, inputs, ca.Options{}).Rounds
	}
	c := experiments.Cluster{
		N: n, Instances: instances,
		Faults:  ca.FaultConfig{Kills: []ca.FaultKill{{Party: K, Round: total / 2}}},
		Input:   input,
		Storage: map[int]experiments.Disk{K: {}},
	}
	restarts := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := mustRunCluster(b, c)
		if v := res.Judge([]int{0, 1, 2, K}); !v.Agree || !v.Valid {
			b.Fatalf("%s (supervised party: %v)", v.Why, res.Parties[K].Err)
		}
		if a := res.Parties[K].Health.Attempts; a != 2 {
			b.Fatalf("supervised party ran %d attempts, want 2: the kill at round %d did not fire once", a, total/2)
		}
		restarts += res.Parties[K].Health.Attempts - 1
	}
	b.ReportMetric(float64(restarts)/float64(b.N), "restarts/op")
}

// BenchmarkE10_AdversaryAblation stands for E10 (communication stability
// across adversary strategies) and times the worst-observed strategy.
func BenchmarkE10_AdversaryAblation(b *testing.B) {
	const n, ell = 7, 1 << 13
	inputs := benchInputs(n, ell, 10)
	corr := map[int]ca.Corruption{
		2: {Kind: ca.AdvEquivocate},
		5: {Kind: ca.AdvSpam},
	}
	var res *ca.Result
	for i := 0; i < b.N; i++ {
		res = runAgree(b, inputs, ca.Options{Protocol: ca.ProtoOptimalNat, Corruptions: corr, Seed: 10})
	}
	reportCost(b, res, ell, n)
}

// BenchmarkSweepN1024 is the scale proof for the zero-copy wire path
// (DESIGN.md §2.9): a full synchronous approximate-agreement instance at
// n=1024 — roughly a million messages per round — with a hard per-party
// heap budget. The assertion is deliberately generous (512 KiB/party,
// ~7× the observed footprint) so it catches a pooling regression that
// reintroduces per-message allocation, not benign noise. One op is a
// whole instance: expect seconds per iteration.
func BenchmarkSweepN1024(b *testing.B) {
	const n, bits = 1024, 64
	inputs := benchInputs(n, bits, 1024)
	maxInput := new(big.Int).Lsh(big.NewInt(1), bits)
	eps := new(big.Int).Lsh(big.NewInt(1), 32)
	var res *ca.ApproxResult
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = ca.ApproxAgree(inputs, maxInput, eps, ca.Options{Seed: 1024})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	perParty := float64(ms.HeapAlloc) / n
	const budget = 512 << 10
	if perParty > budget {
		b.Fatalf("heap budget exceeded: %.0f B/party retained after GC (budget %d B/party)", perParty, budget)
	}
	b.ReportMetric(perParty/1024, "KiB/party")
	b.ReportMetric(float64(res.Rounds), "rounds")
	b.ReportMetric(float64(res.HonestBits), "honest_bits")
}

// BenchmarkLargeN times the optimal protocol in the regime the hot-path
// pass opened up (DESIGN.md §2.4): full instances at n ≥ 64, where the
// κ·n²·log²n witness term dominates and which were previously too slow to
// sweep. These are whole-protocol numbers — thousands of lock-step rounds
// per op — so expect seconds, not microseconds.
func BenchmarkLargeN(b *testing.B) {
	const ell = 1 << 14
	for _, n := range []int{64, 128} {
		n := n
		b.Run(fmt.Sprintf("OptimalNat_n%d", n), func(b *testing.B) {
			inputs := benchInputs(n, ell, int64(n))
			var res *ca.Result
			for i := 0; i < b.N; i++ {
				res = runAgree(b, inputs, ca.Options{Protocol: ca.ProtoOptimalNat, Seed: int64(n)})
			}
			reportCost(b, res, ell, n)
		})
	}
}
