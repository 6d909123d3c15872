package tcpnet_test

import (
	"bytes"
	"testing"
	"time"

	"convexagreement/internal/tcpnet"
	"convexagreement/internal/transport"
)

// TestRejoinReplaysTail: a party that dies and re-dials with a ResumeRound
// inside its peer's rejoin window receives the buffered outbox tail and
// catches up to the live round without the peer ever marking it faulty. The
// replayed rounds arrive byte-exact, also when the replay is one burst
// several times the per-link read buffer.
func TestRejoinReplaysTail(t *testing.T) {
	for _, c := range []struct {
		name string
		size int // payload bytes per round
	}{
		{"small", 2},
		{"burst-past-read-buffer", tcpnet.ReadBufferSize/2 + 3}, // five rounds: 2.5 buffers
	} {
		t.Run(c.name, func(t *testing.T) { rejoinReplaysTail(t, c.size) })
	}
}

// rejoinPayload is party's round-r payload of the given size: party and
// round in the first two bytes, then bytes derived from both.
func rejoinPayload(party, r, size int) []byte {
	p := make([]byte, size)
	p[0], p[1] = byte(party), byte(r)
	for i := 2; i < size; i++ {
		p[i] = byte(i*31 + r*7 + party)
	}
	return p
}

func rejoinReplaysTail(t *testing.T, size int) {
	cfgs := newCluster(t, 2, 0)
	for i := range cfgs {
		cfgs[i].Delta = 400 * time.Millisecond
	}

	var conns [2]*tcpnet.Conn
	errs := make(chan error, 2)
	for i := range conns {
		i := i
		go func() {
			var err error
			conns[i], err = tcpnet.Dial(cfgs[i])
			errs <- err
		}()
	}
	for range conns {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	done := make(chan struct{})
	inbox0 := make([]int, 10)
	go func() {
		defer close(done)
		// Party 1 participates in rounds 0–4, then crashes.
		for r := 0; r < 5; r++ {
			if _, err := transport.ExchangeAll(conns[1], "x", rejoinPayload(1, r, size)); err != nil {
				t.Errorf("party 1 round %d: %v", r, err)
			}
		}
		conns[1].Close()
	}()
	// Party 0 runs all 10 rounds; rounds 5–9 close by Δ-timeout (or
	// instantly once the link is down) with party 1's frames missing.
	for r := 0; r < 10; r++ {
		in, err := transport.ExchangeAll(conns[0], "x", rejoinPayload(0, r, size))
		if err != nil {
			t.Fatalf("party 0 round %d: %v", r, err)
		}
		inbox0[r] = len(in)
	}
	<-done
	defer conns[0].Close()
	for r := 0; r < 5; r++ {
		if inbox0[r] != 2 {
			t.Fatalf("party 0 round %d: %d messages, want 2", r, inbox0[r])
		}
	}

	// Party 1 rejoins at round 5 (where its checkpoint would resume). Party
	// 0 is already at round 10, so rounds 5–9 must be served from its tail.
	cfg := cfgs[1]
	cfg.ResumeRound = 5
	rejoined, err := tcpnet.Dial(cfg)
	if err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	defer rejoined.Close()
	for r := 5; r < 10; r++ {
		start := time.Now()
		in, err := transport.ExchangeAll(rejoined, "x", rejoinPayload(1, r, size))
		if err != nil {
			t.Fatalf("rejoined round %d: %v", r, err)
		}
		if len(in) != 2 || in[0].From != 0 || !bytes.Equal(in[0].Payload, rejoinPayload(0, r, size)) {
			t.Fatalf("rejoined round %d: %d messages, want 2 with party 0's replayed payload first", r, len(in))
		}
		// Replayed rounds close from the buffered tail, not a Δ wait.
		if elapsed := time.Since(start); elapsed > cfgs[0].Delta/2 {
			t.Fatalf("replayed round %d took %v (waited on the wire)", r, elapsed)
		}
	}
	if gap := rejoined.FrontierGap(); gap != 5 {
		t.Errorf("FrontierGap = %d, want 5", gap)
	}
	if faulty := conns[0].Faulty(); len(faulty) != 0 {
		t.Errorf("party 0 demoted %v after a recoverable rejoin", faulty)
	}
}

// TestRejoinGapBeyondWindowDemotes: a rejoin gap the peer's tail no longer
// covers is unrecoverable — the peer demotes the rejoiner to silent instead
// of leaving it desynchronized forever.
func TestRejoinGapBeyondWindowDemotes(t *testing.T) {
	cfgs := newCluster(t, 2, 0)
	for i := range cfgs {
		cfgs[i].Delta = 200 * time.Millisecond
		cfgs[i].RejoinWindow = 2
		cfgs[i].ReconnectBase = 5 * time.Millisecond
	}

	var conns [2]*tcpnet.Conn
	errs := make(chan error, 2)
	for i := range conns {
		i := i
		go func() {
			var err error
			conns[i], err = tcpnet.Dial(cfgs[i])
			errs <- err
		}()
	}
	for range conns {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	defer conns[0].Close()

	// Both parties run 8 rounds; party 1 then crashes.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := 0; r < 8; r++ {
			if _, err := transport.ExchangeAll(conns[1], "x", []byte{1}); err != nil {
				t.Errorf("party 1 round %d: %v", r, err)
			}
		}
		conns[1].Close()
	}()
	for r := 0; r < 8; r++ {
		if _, err := transport.ExchangeAll(conns[0], "x", []byte{0}); err != nil {
			t.Fatalf("party 0 round %d: %v", r, err)
		}
	}
	<-done

	// Rejoining at round 2 needs rounds [2, 8) — far outside window 2.
	cfg := cfgs[1]
	cfg.ResumeRound = 2
	cfg.ReconnectAttempts = 2
	rejoined, err := tcpnet.Dial(cfg)
	if err == nil {
		defer rejoined.Close()
	}
	waitFaulty(t, conns[0], []int{1})
}
