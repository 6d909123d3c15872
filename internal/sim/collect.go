package sim

import (
	"fmt"
	"sync"

	"convexagreement/internal/transport"
)

// Result carries the honest outputs and the cost report of one run.
type Result[T any] struct {
	Report  *Report
	Outputs map[PartyID]T
}

// Collect executes one protocol instance and collects the honest outputs
// by party id. Parties listed in corrupt run the given adversarial
// behavior; all others run honest(env). This is how the library's
// simulated entry points (Agree, ApproxAgree, AgreeVector), the
// experiments and the protocol tests run an instance.
func Collect[T any](cfg Config, corrupt map[int]Behavior, honest func(env *Env) (T, error)) (*Result[T], error) {
	res := &Result[T]{Outputs: make(map[PartyID]T, cfg.N)}
	var mu sync.Mutex
	parties := make([]Party, cfg.N)
	for i := range parties {
		if b, ok := corrupt[i]; ok {
			parties[i] = Party{Corrupt: true, Behavior: b}
			continue
		}
		parties[i] = Party{Behavior: func(env *Env) error {
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
	rep, err := Run(cfg, parties)
	res.Report = rep
	if err != nil {
		return res, err
	}
	if want := cfg.N - len(corrupt); len(res.Outputs) != want {
		return res, fmt.Errorf("sim: %d honest outputs, want %d", len(res.Outputs), want)
	}
	return res, nil
}

// Ghost wraps a protocol-following behavior for a corrupted party: it runs
// fn (typically the honest protocol with an adversarially chosen input —
// the canonical attack on convex validity) and then idles until the
// run ends, so the lock-step schedule of the honest parties is
// undisturbed.
func Ghost(fn func(env *Env) error) Behavior {
	return func(env *Env) error {
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
