package tcpnet_test

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"convexagreement/internal/tcpnet"
	"convexagreement/internal/transport"
	"convexagreement/internal/transporttest"
)

// TestBorrowedReadsConformance runs the conformance battery with every
// party's Conn behind transporttest.Recycle, which does on every round what
// the frame pool does only when a buffer happens to be reused: the payloads
// of round r are overwritten the moment round r+1 is entered. A battery
// check that reads an inbox it no longer owns fails here deterministically
// instead of once in a while under load.
func TestBorrowedReadsConformance(t *testing.T) {
	recycled := func(t *testing.T, n, tc int, fns []func(net transport.Net) error) {
		wrapped := make([]func(net transport.Net) error, len(fns))
		for i, fn := range fns {
			wrapped[i] = func(net transport.Net) error { return fn(transporttest.Recycle(net)) }
		}
		meshCluster(func(*tcpnet.Config) {})(t, n, tc, wrapped)
	}
	transporttest.Conformance(t, recycled)
}

// TestBorrowedReadsMultiRound drives distinct payloads through many rounds
// and verifies each round's bytes while they are valid. Run under -race
// this also checks that pooled-buffer recycling across the read loop,
// Exchange, and Release never races.
func TestBorrowedReadsMultiRound(t *testing.T) {
	conns := dialAll(t, newCluster(t, 3, 0))
	const rounds = 30
	var wg sync.WaitGroup
	errs := make([]error, len(conns))
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c *tcpnet.Conn) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				want := bytes.Repeat([]byte{byte(r)}, 64+r)
				in, err := transport.ExchangeAll(c, "zc", append([]byte{byte(i)}, want...), nil)
				if err != nil {
					errs[i] = err
					return
				}
				for _, m := range in {
					if m.Payload[0] != byte(m.From) || !bytes.Equal(m.Payload[1:], want) {
						t.Errorf("party %d round %d: bad payload from %d", i, r, m.From)
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

// TestRejoinReplayBatchedWrite pins the syscall-collapse half of the rejoin
// path: replaying a gap of G buffered rounds to a rejoining peer must cost
// the replayer exactly one write (one coalesced buffer), not G.
func TestRejoinReplayBatchedWrite(t *testing.T) {
	cfgs := newCluster(t, 2, 0)
	for i := range cfgs {
		cfgs[i].Delta = 400 * time.Millisecond
	}
	conns := dialAll(t, cfgs)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := 0; r < 5; r++ {
			if _, err := transport.ExchangeAll(conns[1], "x", []byte{1, byte(r)}, nil); err != nil {
				t.Errorf("party 1 round %d: %v", r, err)
			}
		}
		conns[1].Close()
	}()
	for r := 0; r < 10; r++ {
		if _, err := transport.ExchangeAll(conns[0], "x", []byte{0, byte(r)}, nil); err != nil {
			t.Fatalf("party 0 round %d: %v", r, err)
		}
	}
	<-done
	defer conns[0].Close()

	// Party 0 is idle at round 10; the only writes it performs from here on
	// are the rejoin replay of rounds 5–9.
	before := conns[0].Stats()

	cfg := cfgs[1]
	cfg.ResumeRound = 5
	rejoined, err := tcpnet.Dial(cfg)
	if err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	defer rejoined.Close()
	for r := 5; r < 10; r++ {
		in, err := transport.ExchangeAll(rejoined, "x", []byte{1, byte(r)}, nil)
		if err != nil {
			t.Fatalf("rejoined round %d: %v", r, err)
		}
		if len(in) != 2 || in[0].Payload[1] != byte(r) {
			t.Fatalf("rejoined round %d inbox = %v", r, in)
		}
	}

	// The replayer counts its write only once conn.Write has returned,
	// which may be after the rejoined party has consumed the bytes: wait,
	// for at most Δ, until the replay's frames are counted.
	after := conns[0].Stats()
	for deadline := time.Now().Add(cfg.Delta); after.FramesSent-before.FramesSent < 5 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		after = conns[0].Stats()
	}
	if frames := after.FramesSent - before.FramesSent; frames != 5 {
		t.Errorf("replayed %d frames, want 5", frames)
	}
	if writes := after.Writes - before.Writes; writes != 1 {
		t.Errorf("replay used %d writes, want 1 (batched)", writes)
	}
	if after.BytesSent <= before.BytesSent {
		t.Error("replay reported no bytes")
	}
}

// BenchmarkMeshRound measures full protocol rounds over a real loopback
// mesh (n=4). The writes/round metric comes from the transport's own
// counters: one write per peer per round regardless of payload
// count. "borrowed" is an all-to-all broadcast, one shared frame a round;
// the sub-benchmark keeps the name it had when a copying receive mode ran
// beside it, so its BENCH_*.json row stays comparable. "per-peer" sends
// every party, itself included, a payload of its own — baplus.Long's
// share-out shape — so every round encodes a frame per peer. Its rounds
// fill the rejoin tail first: until a round slides out of the window, each
// round's per-peer frames are new arena buffers, not the ones evicted.
func BenchmarkMeshRound(b *testing.B) {
	b.Run("borrowed", func(b *testing.B) {
		payload := bytes.Repeat([]byte{0x5a}, 1024)
		benchMeshRounds(b, len(payload), 0, func(c *tcpnet.Conn) func() error {
			var fan []transport.Packet // kept across rounds, as a protocol's work set does
			return func() error {
				_, err := transport.ExchangeAll(c, "bench", payload, &fan)
				return err
			}
		})
	})
	b.Run("per-peer", func(b *testing.B) {
		const window = 128
		benchMeshRounds(b, 1024, window, func(c *tcpnet.Conn) func() error {
			out := make([]transport.Packet, c.N()) // kept across rounds, as the share-out's work set does
			for j := range out {
				out[j] = transport.Packet{To: j, Tag: "bench", Payload: bytes.Repeat([]byte{byte(j)}, 1024)}
			}
			return func() error {
				_, err := c.Exchange(out)
				return err
			}
		})
	})
}

// benchMeshRounds runs b.N rounds of round on every party of an n = 4
// loopback mesh whose rejoin window is warm rounds long, after warm rounds
// that are not timed, and reports the transport's writes per round.
func benchMeshRounds(b *testing.B, payloadLen, warm int, round func(c *tcpnet.Conn) func() error) {
	const n = 4
	cfgs := newCluster(b, n, 1)
	for i := range cfgs {
		cfgs[i].Delta = 5 * time.Second
		cfgs[i].RejoinWindow = warm // 0: the default
	}
	conns := dialAll(b, cfgs)
	rounds := make([]func() error, n)
	for i, c := range conns {
		rounds[i] = round(c)
	}
	run := func(count int) {
		var wg sync.WaitGroup
		errs := make([]error, n)
		for i := range conns {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < count && errs[i] == nil; r++ {
					errs[i] = rounds[i]()
				}
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				b.Fatalf("party %d: %v", i, err)
			}
		}
	}
	run(warm)
	before := conns[0].Stats().Writes
	b.SetBytes(int64(payloadLen * (n - 1)))
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
	b.StopTimer()
	b.ReportMetric(float64(conns[0].Stats().Writes-before)/float64(b.N), "writes/round")
}
