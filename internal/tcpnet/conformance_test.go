package tcpnet_test

import (
	"sync"
	"testing"
	"time"

	"convexagreement/internal/tcpnet"
	"convexagreement/internal/transport"
	"convexagreement/internal/transporttest"
)

// meshCluster is the conformance cluster runner over a fresh loopback mesh
// whose every party's config went through configure first.
func meshCluster(configure func(*tcpnet.Config)) transporttest.Cluster {
	return func(t *testing.T, n, tc int, fns []func(net transport.Net) error) {
		t.Helper()
		cfgs := newCluster(t, n, tc)
		for i := range cfgs {
			configure(&cfgs[i])
		}
		conns := dialAll(t, cfgs)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = fns[i](conns[i])
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("party %d: %v", i, err)
			}
		}
	}
}

func TestConformance(t *testing.T) {
	transporttest.Conformance(t, meshCluster(func(*tcpnet.Config) {}))
}

// TestExchangeVecMatchesExchange runs the scatter-gather conformance at
// both ends of the tail length: the default window, where the rejoin tail
// keeps each round frame for 128 rounds, and a one-round tail, where the
// frame is released one round after its write. It is one send path either
// way.
func TestExchangeVecMatchesExchange(t *testing.T) {
	for name, window := range map[string]int{"rejoin-tails": 0, "one-round-tail": 1} {
		t.Run(name, func(t *testing.T) {
			transporttest.ConformanceVec(t, meshCluster(func(c *tcpnet.Config) { c.RejoinWindow = window }))
		})
	}
}

// TestConformanceFaults runs the fault-tolerance battery with a small Δ so
// the stall case actually blows the synchrony bound; a party's departure is
// a hard connection close, as a crashed process would produce.
func TestConformanceFaults(t *testing.T) {
	transporttest.ConformanceFaults(t, faultCluster)
}

// TestConformanceIngress runs the flood battery over a real TCP mesh:
// packet- and byte-level floods from one party must ride within the
// default admission budget (they are loud, not hostile) while honest
// rounds stay exact.
func TestConformanceIngress(t *testing.T) {
	transporttest.ConformanceIngress(t, faultCluster)
}

func faultCluster(t *testing.T, n, tc int, fns []func(net transport.Net, leave func()) error) {
	t.Helper()
	cfgs := newCluster(t, n, tc)
	for i := range cfgs {
		cfgs[i].Delta = 300 * time.Millisecond
	}
	conns := dialAll(t, cfgs)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fns[i](conns[i], func() { conns[i].Close() })
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("party %d: %v", i, err)
		}
	}
}
