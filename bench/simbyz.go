package main

import (
	"fmt"
	"math/big"
	"math/rand"

	ca "convexagreement"
)

// ghostInput is the poisoned input of the ghost adversary: far outside
// every honest hull, which starts near 2^4095.
var ghostInput = new(big.Int).Lsh(big.NewInt(1), 40)

// simCase is one simulated agreement: inputs and which parties run which
// byzantine strategy.
type simCase struct {
	kind   ca.AdversaryKind
	inputs []*big.Int
	honest []*big.Int
	opts   ca.Options
}

// simPlan generates the workload's agreements: t corrupted parties drawn
// per agreement, all running the same strategy, strategies cycling.
func simPlan(seed int64, sh shape) []simCase {
	rng := rand.New(rand.NewSource(seed))
	kinds := ca.AdversaryKinds()
	plan := make([]simCase, sh.plan)
	for i := range plan {
		sc := simCase{
			kind: kinds[i%len(kinds)],
			opts: ca.Options{T: sh.t, Seed: seed + int64(i), Corruptions: map[int]ca.Corruption{}},
		}
		for _, p := range rng.Perm(sh.n)[:sh.t] {
			sc.opts.Corruptions[p] = ca.Corruption{Kind: sc.kind, Input: ghostInput}
		}
		sc.inputs = make([]*big.Int, sh.n)
		for p := range sc.inputs {
			sc.inputs[p] = randomBits(rng, sh.bits)
			if _, bad := sc.opts.Corruptions[p]; !bad {
				sc.honest = append(sc.honest, sc.inputs[p])
			}
		}
		plan[i] = sc
	}
	return plan
}

func runSimByz(c config, sh shape) (*result, error) {
	r := &result{layer: map[string]float64{}}
	plan, setups, err := repeatSetup(sh.setups, func(int) ([]simCase, error) { return simPlan(c.seed, sh), nil }, func([]simCase) {})
	if err != nil {
		return nil, err
	}
	r.setupS = setups

	// Counts are taken over the first sh.exact timed agreements, which
	// every run completes, so they depend on the seed and not on how far
	// the window got.
	var rounds, messages, bits, counted int64
	layerBits := map[string]int64{}
	var roundUS []float64
	err = closedLoop(c, sh, r, nil, func() {}, func(i int, _ bool) (step, error) {
		sc := plan[i%len(plan)]
		start := now()
		res, err := ca.Agree(sc.inputs, sc.opts)
		st := step{elapsed: since(start)}
		if err == nil {
			outs := make([]*big.Int, 0, len(res.Outputs))
			for _, out := range res.Outputs {
				outs = append(outs, out)
			}
			if len(outs) != len(sc.honest) {
				err = fmt.Errorf("%d honest outputs, want %d", len(outs), len(sc.honest))
			} else {
				err = verify(outs, sc.honest)
			}
		}
		if err != nil {
			st.failures = append(st.failures, fmt.Sprintf("agreement %d (%s): %v", i, sc.kind, err))
			return st, nil
		}
		st.latencyMS, st.keys = []float64{ms(st.elapsed)}, []int{i}
		if i >= sh.warmup {
			roundUS = append(roundUS, us(st.elapsed)/float64(res.Rounds))
			if counted < int64(sh.exact) {
				counted++
				rounds += int64(res.Rounds)
				messages += res.Messages
				bits += res.HonestBits
				for label, b := range res.BitsByLabel {
					layer := layerOf(label)
					if layer == "" {
						return st, fmt.Errorf("label %q belongs to no known layer", label)
					}
					layerBits[layer] += b
				}
			}
		}
		return st, nil
	})
	if err != nil {
		return nil, err
	}
	if counted > 0 {
		per := float64(counted)
		r.layer["sim.rounds"] = float64(rounds) / per
		r.layer["sim.messages"] = float64(messages) / per
		r.layer["sim.honest_bits"] = float64(bits) / per
		r.layer["proto.rounds"] = float64(rounds) / per
		r.layer["proto.bytes_out"] = float64(bits) / 8 / per
		for _, l := range protoLayers[layerBA:] {
			if l != "core" { // core has no bytes_out line: its one tag carries a bit per party
				r.layer[l+".bytes_out"] = float64(layerBits[l]) / 8 / per
			}
		}
	}
	r.layer["sim.round_us"] = median(roundUS)
	return r, nil
}
