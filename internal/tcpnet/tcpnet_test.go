package tcpnet_test

import (
	"errors"
	"fmt"
	"math/big"
	"net"
	"sync"
	"testing"
	"time"

	"convexagreement/internal/core"
	"convexagreement/internal/tcpnet"
	"convexagreement/internal/transport"
)

// newCluster binds n loopback listeners and returns ready-to-dial configs.
func newCluster(t testing.TB, n, tc int) []tcpnet.Config {
	t.Helper()
	addrs := make([]string, n)
	listeners := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
		t.Cleanup(func() { ln.Close() })
	}
	cfgs := make([]tcpnet.Config, n)
	for i := 0; i < n; i++ {
		cfgs[i] = tcpnet.Config{
			ID:       i,
			Addrs:    addrs,
			T:        tc,
			Delta:    3 * time.Second,
			Listener: listeners[i],
		}
	}
	return cfgs
}

// dialAll establishes the mesh concurrently.
func dialAll(t testing.TB, cfgs []tcpnet.Config) []*tcpnet.Conn {
	t.Helper()
	conns := make([]*tcpnet.Conn, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i := range cfgs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conns[i], errs[i] = tcpnet.Dial(cfgs[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("party %d dial: %v", i, err)
		}
	}
	t.Cleanup(func() {
		for _, c := range conns {
			c.Close()
		}
	})
	return conns
}

func TestEchoRound(t *testing.T) {
	conns := dialAll(t, newCluster(t, 3, 0))
	var wg sync.WaitGroup
	results := make([][]transport.Message, 3)
	errs := make([]error, 3)
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c *tcpnet.Conn) {
			defer wg.Done()
			results[i], errs[i] = transport.ExchangeAll(c, "echo", []byte{byte(i + 0x40)})
		}(i, c)
	}
	wg.Wait()
	for i := range conns {
		if errs[i] != nil {
			t.Fatalf("party %d: %v", i, errs[i])
		}
		if len(results[i]) != 3 {
			t.Fatalf("party %d received %d messages", i, len(results[i]))
		}
		for j, m := range results[i] {
			if int(m.From) != j || m.Payload[0] != byte(j+0x40) {
				t.Fatalf("party %d msg %d: from %d payload %v", i, j, m.From, m.Payload)
			}
		}
	}
}

func TestMultiRoundOrdering(t *testing.T) {
	conns := dialAll(t, newCluster(t, 2, 0))
	const rounds = 20
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c *tcpnet.Conn) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				in, err := transport.ExchangeAll(c, "seq", []byte{byte(r)})
				if err != nil {
					errs[i] = err
					return
				}
				for _, m := range in {
					if m.Payload[0] != byte(r) {
						errs[i] = fmt.Errorf("round %d: got payload %d", r, m.Payload[0])
						return
					}
				}
			}
		}(i, c)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("party %d: %v", i, err)
		}
	}
}

func TestSilentPeerTimesOutRound(t *testing.T) {
	cfgs := newCluster(t, 3, 0)
	for i := range cfgs {
		cfgs[i].Delta = 300 * time.Millisecond
	}
	conns := dialAll(t, cfgs)
	// Parties 0 and 1 run a round; party 2 stays mute (connection open).
	var wg sync.WaitGroup
	got := make([]int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			in, err := transport.ExchangeAll(conns[i], "x", []byte{1})
			if err == nil {
				got[i] = len(in)
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < 2; i++ {
		if got[i] != 2 { // self + the other active party
			t.Errorf("party %d got %d messages, want 2", i, got[i])
		}
	}
}

func TestPiZOverTCP(t *testing.T) {
	n, tc := 4, 1
	conns := dialAll(t, newCluster(t, n, tc))
	inputs := []*big.Int{big.NewInt(-120), big.NewInt(-100), big.NewInt(-110), big.NewInt(-105)}
	outputs := make([]*big.Int, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c *tcpnet.Conn) {
			defer wg.Done()
			outputs[i], errs[i] = core.PiZ(c, "ca", inputs[i])
		}(i, c)
	}
	wg.Wait()
	for i := range conns {
		if errs[i] != nil {
			t.Fatalf("party %d: %v", i, errs[i])
		}
	}
	for i := 1; i < n; i++ {
		if outputs[i].Cmp(outputs[0]) != 0 {
			t.Fatalf("party %d output %v differs from %v", i, outputs[i], outputs[0])
		}
	}
	if outputs[0].Cmp(big.NewInt(-120)) < 0 || outputs[0].Cmp(big.NewInt(-100)) > 0 {
		t.Fatalf("output %v outside honest hull", outputs[0])
	}
}

// TestPeerCrashMidProtocol kills one party's connections mid-run: the
// survivors must detect the dead peer (read error), stop waiting Δ for it,
// and still reach agreement within the corruption budget.
func TestPeerCrashMidProtocol(t *testing.T) {
	n, tc := 4, 1
	cfgs := newCluster(t, n, tc)
	for i := range cfgs {
		cfgs[i].Delta = 500 * time.Millisecond
	}
	conns := dialAll(t, cfgs)
	inputs := []*big.Int{big.NewInt(40), big.NewInt(44), big.NewInt(42), big.NewInt(46)}
	outputs := make([]*big.Int, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ { // parties 0-2 run the protocol
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outputs[i], errs[i] = core.PiZ(conns[i], "ca", inputs[i])
		}(i)
	}
	// Party 3 participates for a moment, then crashes hard.
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = transport.ExchangeAll(conns[3], "ca", []byte{1})
		conns[3].Close()
	}()
	start := time.Now()
	wg.Wait()
	elapsed := time.Since(start)
	for i := 0; i < 3; i++ {
		if errs[i] != nil {
			t.Fatalf("party %d: %v", i, errs[i])
		}
	}
	for i := 1; i < 3; i++ {
		if outputs[i].Cmp(outputs[0]) != 0 {
			t.Fatalf("disagreement after crash: %v vs %v", outputs[i], outputs[0])
		}
	}
	if outputs[0].Cmp(big.NewInt(40)) < 0 || outputs[0].Cmp(big.NewInt(44)) > 0 {
		t.Fatalf("output %v outside surviving-honest hull", outputs[0])
	}
	// The dead peer must not cost Δ every round: with ~150+ protocol
	// rounds and Δ=500ms, per-round waiting would take over a minute.
	if elapsed > 30*time.Second {
		t.Fatalf("run took %v: dead peer not detected", elapsed)
	}
}

// TestDialValidation: every malformed config is ErrConfig, refused before
// the party listens or dials.
func TestDialValidation(t *testing.T) {
	addrs := []string{"a", "b"}
	for _, tc := range []struct {
		name string
		cfg  tcpnet.Config
	}{
		{"empty", tcpnet.Config{}},
		{"out-of-range id", tcpnet.Config{ID: 5, Addrs: addrs}},
		{"negative ReconnectAttempts", tcpnet.Config{Addrs: addrs, ReconnectAttempts: -1}},
		{"negative RejoinWindow", tcpnet.Config{Addrs: addrs, RejoinWindow: -1}},
		{"negative HelloBurst", tcpnet.Config{Addrs: addrs, HelloBurst: -1}},
		{"negative RoundHorizon", tcpnet.Config{Addrs: addrs, RoundHorizon: -1}},
	} {
		if _, err := tcpnet.Dial(tc.cfg); !errors.Is(err, tcpnet.ErrConfig) {
			t.Errorf("%s: Dial = %v, want ErrConfig", tc.name, err)
		}
	}
}

// TestHandshakeGarbageRejected connects raw sockets that speak nonsense
// during mesh establishment: the cluster must still come up cleanly once
// the real peers arrive.
func TestHandshakeGarbageRejected(t *testing.T) {
	cfgs := newCluster(t, 2, 0)
	// An interloper connects to party 0's listener first and sends an
	// absurd handshake, then a second one sends nothing and hangs.
	go func() {
		if conn, err := net.Dial("tcp", cfgs[0].Addrs[0]); err == nil {
			conn.Write([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
			conn.Close()
		}
	}()
	conns := dialAll(t, cfgs)
	// The mesh must still work.
	var wg sync.WaitGroup
	ok := make([]bool, 2)
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c *tcpnet.Conn) {
			defer wg.Done()
			in, err := transport.ExchangeAll(c, "x", []byte{9})
			ok[i] = err == nil && len(in) == 2
		}(i, c)
	}
	wg.Wait()
	if !ok[0] || !ok[1] {
		t.Fatal("mesh degraded by interloper")
	}
}

// TestLargeLegalPayload: a big-but-legal frame passes the size checks and
// round-trips intact. (Frames *over* the cap are covered by
// TestOversizedFrameDemotesPeer in tcpnet_fault_test.go.)
func TestLargeLegalPayload(t *testing.T) {
	cfgs := newCluster(t, 2, 0)
	cfgs[0].Delta = 300 * time.Millisecond
	cfgs[1].Delta = 300 * time.Millisecond
	conns := dialAll(t, cfgs)
	big := make([]byte, 1<<20)
	var wg sync.WaitGroup
	results := make([]int, 2)
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c *tcpnet.Conn) {
			defer wg.Done()
			in, err := transport.ExchangeAll(c, "big", big)
			if err == nil {
				results[i] = len(in)
			}
		}(i, c)
	}
	wg.Wait()
	if results[0] != 2 || results[1] != 2 {
		t.Fatalf("large payload round failed: %v", results)
	}
}

func TestExchangeAfterClose(t *testing.T) {
	conns := dialAll(t, newCluster(t, 2, 0))
	conns[0].Close()
	if _, err := conns[0].Exchange(nil); err == nil {
		t.Error("exchange on closed conn succeeded")
	}
}
