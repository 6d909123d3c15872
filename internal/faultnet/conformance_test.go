package faultnet_test

import (
	"testing"

	"convexagreement/internal/channet"
	"convexagreement/internal/faultnet"
	"convexagreement/internal/transport"
	"convexagreement/internal/transporttest"
)

// TestConformance runs the full transport contract battery over
// faultnet-wrapped channet handles with all faults disabled: the wrapper
// must be semantically invisible.
func TestConformance(t *testing.T) { transporttest.Conformance(t, cluster) }

// TestConformanceVec: the wrapper takes scatter-gather packets through
// transport.ExchangeVec's flattening fallback, and — it retains payloads
// in its delay queues — must not see the sender's pieces after the call.
func TestConformanceVec(t *testing.T) { transporttest.ConformanceVec(t, cluster) }

// TestOutReuseWithHeldPackets: every packet between two parties is held for
// two rounds in the wrapper's delay queue, and the sender overwrites its out
// slice the moment each Exchange returns — the queue must hold the packets
// themselves, not the caller's slice.
func TestOutReuseWithHeldPackets(t *testing.T) {
	const delay = 2
	plan := &faultnet.Plan{Seed: 1, Rules: []faultnet.Rule{
		{Kind: faultnet.Delay, From: faultnet.Any, To: faultnet.Any, Prob: 1, DelayRounds: delay},
	}}
	transporttest.ConformanceOutReuse(t, planCluster(plan), delay)
}

func cluster(t *testing.T, n, tc int, fns []func(net transport.Net) error) {
	planCluster(&faultnet.Plan{Seed: 1})(t, n, tc, fns)
}

// planCluster runs the parties over channet handles wrapped with plan.
func planCluster(plan *faultnet.Plan) transporttest.Cluster {
	return func(t *testing.T, n, tc int, fns []func(net transport.Net) error) {
		t.Helper()
		hub, err := channet.NewHub(n, tc)
		if err != nil {
			t.Fatal(err)
		}
		wrapped := make([]func(net transport.Net) error, n)
		for i := range fns {
			fn := fns[i]
			wrapped[i] = func(net transport.Net) error {
				return fn(faultnet.Wrap(net, plan))
			}
		}
		if err := hub.Run(wrapped); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConformanceFaults runs the fault-tolerance battery over the wrapped
// transport: injected-fault machinery must not break graceful degradation.
func TestConformanceFaults(t *testing.T) {
	transporttest.ConformanceFaults(t, faultCluster)
}

// TestConformanceIngress runs the flood battery through the fault-injection
// wrapper: flood pressure and injected-fault machinery must compose without
// disturbing honest rounds.
func TestConformanceIngress(t *testing.T) {
	transporttest.ConformanceIngress(t, faultCluster)
}

func faultCluster(t *testing.T, n, tc int, fns []func(net transport.Net, leave func()) error) {
	t.Helper()
	hub, err := channet.NewHub(n, tc)
	if err != nil {
		t.Fatal(err)
	}
	plan := &faultnet.Plan{Seed: 2}
	wrapped := make([]func(net transport.Net) error, n)
	for i := range fns {
		id, fn := i, fns[i]
		wrapped[i] = func(net transport.Net) error {
			return fn(faultnet.Wrap(net, plan), func() { hub.Disconnect(id) })
		}
	}
	if err := hub.Run(wrapped); err != nil {
		t.Fatal(err)
	}
}
