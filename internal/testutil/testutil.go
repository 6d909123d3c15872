// Package testutil provides the shared harness used by every protocol test,
// by the experiments and by the root package's simulated runners (Agree,
// ApproxAgree, AgreeVector): it runs n parties on the simulated synchronous network, with a chosen
// subset of parties corrupted and driven by adversarial strategies, and
// collects the honest parties' outputs for property checking.
package testutil

import (
	"fmt"
	"math/big"
	"sync"

	"convexagreement/internal/sim"
	"convexagreement/internal/transport"
)

// Result carries the honest outputs and the cost report of one run.
type Result[T any] struct {
	Report  *sim.Report
	Outputs map[sim.PartyID]T
}

// Run executes one protocol instance. Parties listed in corrupt run the
// given adversarial behavior; all others run honest(env). Honest outputs
// are collected by party id.
func Run[T any](cfg sim.Config, corrupt map[int]sim.Behavior, honest func(env *sim.Env) (T, error)) (*Result[T], error) {
	res := &Result[T]{Outputs: make(map[sim.PartyID]T, cfg.N)}
	var mu sync.Mutex
	parties := make([]sim.Party, cfg.N)
	for i := 0; i < cfg.N; i++ {
		if b, ok := corrupt[i]; ok {
			parties[i] = sim.Party{Corrupt: true, Behavior: b}
			continue
		}
		parties[i] = sim.Party{Behavior: func(env *sim.Env) error {
			out, err := honest(env)
			if err != nil {
				return err
			}
			mu.Lock()
			res.Outputs[env.ID()] = out
			mu.Unlock()
			return nil
		}}
	}
	rep, err := sim.Run(cfg, parties)
	res.Report = rep
	if err != nil {
		return res, err
	}
	if want := cfg.N - len(corrupt); len(res.Outputs) != want {
		return res, fmt.Errorf("testutil: %d honest outputs, want %d", len(res.Outputs), want)
	}
	return res, nil
}

// Ghost wraps a protocol-following behavior for a corrupted party: it runs
// fn (typically the honest protocol with an adversarially chosen input —
// the canonical attack on convex validity) and then idles until the
// simulation ends, so the lock-step schedule of the honest parties is
// undisturbed.
func Ghost(fn func(env *sim.Env) error) sim.Behavior {
	return func(env *sim.Env) error {
		if err := fn(env); err != nil {
			return err
		}
		for {
			if _, err := transport.ExchangeNone(env); err != nil {
				return err
			}
		}
	}
}

// AgreeValue returns the single common output, failing if honest parties
// disagree (via the comparable constraint).
func AgreeValue[T comparable](r *Result[T]) (T, error) {
	var zero T
	first := true
	var common T
	for id, out := range r.Outputs {
		if first {
			common, first = out, false
			continue
		}
		if out != common {
			return zero, fmt.Errorf("testutil: party %d output %v differs from %v", id, out, common)
		}
	}
	if first {
		return zero, fmt.Errorf("testutil: no honest outputs")
	}
	return common, nil
}

// AgreeBig is AgreeValue for *big.Int outputs.
func AgreeBig(r *Result[*big.Int]) (*big.Int, error) {
	var common *big.Int
	for id, out := range r.Outputs {
		if out == nil {
			return nil, fmt.Errorf("testutil: party %d output nil", id)
		}
		if common == nil {
			common = out
			continue
		}
		if out.Cmp(common) != 0 {
			return nil, fmt.Errorf("testutil: party %d output %v differs from %v", id, out, common)
		}
	}
	if common == nil {
		return nil, fmt.Errorf("testutil: no honest outputs")
	}
	return common, nil
}

// HullCheck verifies the convex-validity condition of Definition 1: value
// lies within [min(honestInputs), max(honestInputs)].
func HullCheck(value *big.Int, honestInputs []*big.Int) error {
	if len(honestInputs) == 0 {
		return fmt.Errorf("testutil: no honest inputs")
	}
	lo, hi := honestInputs[0], honestInputs[0]
	for _, v := range honestInputs[1:] {
		if v.Cmp(lo) < 0 {
			lo = v
		}
		if v.Cmp(hi) > 0 {
			hi = v
		}
	}
	if value.Cmp(lo) < 0 || value.Cmp(hi) > 0 {
		return fmt.Errorf("testutil: output %v outside honest hull [%v, %v]", value, lo, hi)
	}
	return nil
}
