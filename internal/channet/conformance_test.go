package channet_test

import (
	"testing"

	"convexagreement/internal/channet"
	"convexagreement/internal/transport"
	"convexagreement/internal/transporttest"
)

func cluster(t *testing.T, n, tc int, fns []func(net transport.Net) error) {
	t.Helper()
	hub, err := channet.NewHub(n, tc)
	if err != nil {
		t.Fatal(err)
	}
	if err := hub.Run(fns); err != nil {
		t.Fatal(err)
	}
}

func TestConformance(t *testing.T) { transporttest.Conformance(t, cluster) }

// TestConformanceVec: scatter-gather packets over the hub take
// transport.ExchangeVec's flattening fallback.
func TestConformanceVec(t *testing.T) { transporttest.ConformanceVec(t, cluster) }

// TestConformanceIngress runs the flood battery: packet- and byte-level
// floods from one party must not disturb the others' rounds.
func TestConformanceIngress(t *testing.T) {
	transporttest.ConformanceIngress(t, faultCluster)
}

func TestConformanceFaults(t *testing.T) {
	transporttest.ConformanceFaults(t, faultCluster)
}

func faultCluster(t *testing.T, n, tc int, fns []func(net transport.Net, leave func()) error) {
	t.Helper()
	hub, err := channet.NewHub(n, tc)
	if err != nil {
		t.Fatal(err)
	}
	wrapped := make([]func(net transport.Net) error, n)
	for i := range fns {
		id, fn := i, fns[i]
		wrapped[i] = func(net transport.Net) error {
			return fn(net, func() { hub.Disconnect(id) })
		}
	}
	if err := hub.Run(wrapped); err != nil {
		t.Fatal(err)
	}
}
