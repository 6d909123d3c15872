package experiments

import (
	"fmt"
	"math/big"
	"math/rand"
	"sync"

	"convexagreement/internal/asyncaa"
	"convexagreement/internal/asyncnet"
)

// E13AsyncAA measures the asynchronous Approximate Agreement substrate
// (packages asyncnet/rbc/asyncaa) under adversarial message schedulers —
// the setting §8 of the paper proposes extending its techniques to. The
// table verifies ε-agreement + hull membership under every scheduler and
// reports the message cost (deliveries) of reaching ε, which scales with
// log₂(D/ε) as the halving argument predicts.
func E13AsyncAA() Table {
	n, t := 7, 2
	const diameter = 1 << 16
	epsilons := []int64{4096, 256, 16, 1}
	tbl := Table{
		ID:     "E13",
		Title:  fmt.Sprintf("Async Approximate Agreement at n=%d, t=%d, D=%d (future-work setting of §8)", n, t, diameter),
		Claim:  "async AA (RBC + witness technique): ε-agreement + hull under any schedule; deliveries scale with log₂(D/ε)·n³ (RBC is Θ(n²) msgs per broadcast, n broadcasts per round)",
		Header: []string{"scheduler", "epsilon", "rounds", "deliveries", "spread<=eps", "in_hull"},
	}
	schedulers := []struct {
		name string
		mk   func() asyncnet.Scheduler
	}{
		{"random", func() asyncnet.Scheduler { return asyncnet.NewRandomScheduler(13) }},
		{"lifo", func() asyncnet.Scheduler { return asyncnet.LIFOScheduler{} }},
		{"delay-2-honest", func() asyncnet.Scheduler { return asyncnet.NewDelayScheduler(13, 0, 3) }},
	}
	rng := rand.New(rand.NewSource(13))
	inputs := make([]*big.Int, n)
	for i := range inputs {
		inputs[i] = big.NewInt(rng.Int63n(diameter))
	}
	for _, sched := range schedulers {
		for _, eps := range epsilons {
			outputs, deliveries := runAsyncAA(n, t, inputs, diameter, eps, sched.mk())
			spread, inHull := analyze(outputs, inputs)
			tbl.Rows = append(tbl.Rows, []string{
				sched.name,
				fmt.Sprintf("%d", eps),
				fmt.Sprintf("%d", asyncaa.Rounds(big.NewInt(diameter), big.NewInt(eps))),
				fmt.Sprintf("%d", deliveries),
				fmt.Sprintf("%v", spread.Cmp(big.NewInt(eps)) <= 0),
				fmt.Sprintf("%v", inHull),
			})
		}
	}
	return tbl
}

func runAsyncAA(n, t int, inputs []*big.Int, diameter, eps int64, sched asyncnet.Scheduler) ([]*big.Int, uint64) {
	var mu sync.Mutex
	outputs := make([]*big.Int, 0, n)
	parties := make([]asyncnet.Party, n)
	var netRef *asyncnet.Net
	for i := 0; i < n; i++ {
		input := inputs[i]
		parties[i] = asyncnet.Party{Behavior: func(net *asyncnet.Net, id asyncnet.PartyID) error {
			mu.Lock()
			netRef = net
			mu.Unlock()
			out, err := asyncaa.Run(net, id, input, big.NewInt(diameter), big.NewInt(eps))
			if err != nil {
				return err
			}
			mu.Lock()
			outputs = append(outputs, out)
			mu.Unlock()
			return nil
		}}
	}
	if _, err := asyncnet.Run(asyncnet.Config{N: n, T: t, Scheduler: sched}, parties); err != nil {
		panic(fmt.Sprintf("experiments: async aa: %v", err))
	}
	return outputs, netRef.Deliveries()
}

func analyze(outputs, honest []*big.Int) (*big.Int, bool) {
	lo, hi := honest[0], honest[0]
	for _, v := range honest {
		if v.Cmp(lo) < 0 {
			lo = v
		}
		if v.Cmp(hi) > 0 {
			hi = v
		}
	}
	inHull := true
	oLo, oHi := outputs[0], outputs[0]
	for _, v := range outputs {
		if v.Cmp(lo) < 0 || v.Cmp(hi) > 0 {
			inHull = false
		}
		if v.Cmp(oLo) < 0 {
			oLo = v
		}
		if v.Cmp(oHi) > 0 {
			oHi = v
		}
	}
	return new(big.Int).Sub(oHi, oLo), inHull
}
