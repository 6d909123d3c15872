package tcpnet_test

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"convexagreement/internal/tcpnet"
	"convexagreement/internal/transport"
)

// TestRejoinReplaysTail: a party that dies and re-dials with a ResumeRound
// inside its peers' rejoin window receives their buffered outbox tails and
// catches up to the live round without any peer ever marking it faulty. The
// replayed rounds arrive byte-exact, also when the replay is one burst
// several times the per-link read buffer, and when the gap mixes broadcast
// rounds (one frame shared by every peer) with rounds whose payloads differ
// per peer, out of a tail ring that has wrapped around several times.
func TestRejoinReplaysTail(t *testing.T) {
	for _, c := range []struct {
		name   string
		n      int
		size   int  // payload bytes per round
		window int  // RejoinWindow; 0 is the default
		joint  int  // rounds the whole mesh runs before the last party dies
		mixed  bool // odd rounds send each peer its own payload
	}{
		{"small", 2, 2, 0, 5, false},
		{"burst-past-read-buffer", 2, tcpnet.ReadBufferSize/2 + 3, 0, 5, false}, // five rounds: 2.5 buffers
		{"mixed-shared-and-per-peer", 3, 64, rejoinGap, 3 * rejoinGap, true},
	} {
		t.Run(c.name, func(t *testing.T) { rejoinReplaysTail(t, c.n, c.size, c.window, c.joint, c.mixed) })
	}
}

// rejoinGap is how many rounds the survivors run while the last party is
// down: the gap its rejoin replays.
const rejoinGap = 5

// rejoinPayload is party's round-r payload of the given size for peer to:
// party and round in the first two bytes, then bytes derived from all three.
// Broadcast rounds send every peer the to = -1 payload.
func rejoinPayload(party, to, r, size int) []byte {
	p := make([]byte, size)
	p[0], p[1] = byte(party), byte(r)
	for i := 2; i < size; i++ {
		p[i] = byte(i*31 + r*7 + party + 101*to)
	}
	return p
}

// rejoinRound runs party c's round r: a broadcast, or on odd rounds of a
// mixed run one distinct payload per peer.
func rejoinRound(c *tcpnet.Conn, r, size int, mixed bool) ([]transport.Message, error) {
	me := int(c.ID())
	if !mixed || r%2 == 0 {
		return transport.ExchangeAll(c, "x", rejoinPayload(me, -1, r, size), nil)
	}
	out := make([]transport.Packet, c.N())
	for to := range out {
		out[to] = transport.Packet{To: to, Tag: "x", Payload: rejoinPayload(me, to, r, size)}
	}
	return c.Exchange(out)
}

func rejoinReplaysTail(t *testing.T, n, size, window, joint int, mixed bool) {
	cfgs := newCluster(t, n, 0)
	for i := range cfgs {
		cfgs[i].Delta = 400 * time.Millisecond
		cfgs[i].RejoinWindow = window
	}
	conns := dialAll(t, cfgs)
	last := n - 1
	want := func(from, r int) []byte {
		if mixed && r%2 == 1 {
			return rejoinPayload(from, last, r, size)
		}
		return rejoinPayload(from, -1, r, size)
	}

	// Every party runs the joint rounds; the last one then crashes, and the
	// survivors run the gap without it — those rounds close once its links
	// are seen down, or by Δ-timeout.
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c *tcpnet.Conn) {
			defer wg.Done()
			rounds := joint + rejoinGap
			if i == last {
				defer c.Close()
				rounds = joint
			}
			for r := 0; r < rounds; r++ {
				in, err := rejoinRound(c, r, size, mixed)
				if err != nil {
					t.Errorf("party %d round %d: %v", i, r, err)
					return
				}
				if r < joint && len(in) != n {
					t.Errorf("party %d round %d: %d messages, want %d", i, r, len(in), n)
				}
			}
		}(i, c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// The last party rejoins at the round it died in (where its checkpoint
	// would resume). The survivors are already past the gap, so it must be
	// served from their tails.
	cfg := cfgs[last]
	cfg.ResumeRound = uint64(joint)
	rejoined, err := tcpnet.Dial(cfg)
	if err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	defer rejoined.Close()
	for r := joint; r < joint+rejoinGap; r++ {
		start := time.Now()
		in, err := rejoinRound(rejoined, r, size, mixed)
		if err != nil {
			t.Fatalf("rejoined round %d: %v", r, err)
		}
		if len(in) != n {
			t.Fatalf("rejoined round %d: %d messages, want %d", r, len(in), n)
		}
		for from, m := range in[:last] {
			if m.From != from || !bytes.Equal(m.Payload, want(from, r)) {
				t.Fatalf("rejoined round %d: message %d from %d is not party %d's replayed payload", r, from, m.From, from)
			}
		}
		// Replayed rounds close from the buffered tail, not a Δ wait.
		if elapsed := time.Since(start); elapsed > cfgs[0].Delta/2 {
			t.Fatalf("replayed round %d took %v (waited on the wire)", r, elapsed)
		}
	}
	if gap := rejoined.FrontierGap(); gap != rejoinGap {
		t.Errorf("FrontierGap = %d, want %d", gap, rejoinGap)
	}
	for i, c := range conns[:last] {
		if faulty := c.Faulty(); len(faulty) != 0 {
			t.Errorf("party %d demoted %v after a recoverable rejoin", i, faulty)
		}
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
			if _, err := transport.ExchangeAll(conns[1], "x", []byte{1}, nil); err != nil {
				t.Errorf("party 1 round %d: %v", r, err)
			}
		}
		conns[1].Close()
	}()
	for r := 0; r < 8; r++ {
		if _, err := transport.ExchangeAll(conns[0], "x", []byte{0}, nil); err != nil {
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
