package sessmux_test

import (
	"fmt"
	"math/big"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"convexagreement/internal/aa"
	"convexagreement/internal/sessmux"
	"convexagreement/internal/tcpnet"
	"convexagreement/internal/transport"
)

// benchMesh dials a full loopback TCP mesh with a one-round rejoin tail:
// at the default window the tails would retain every session's frames for
// 128 rounds (tens of MiB per party at 1024 sessions), which is not what
// the retained-heap budget below is looking for.
func benchMesh(b *testing.B, n int) []*tcpnet.Conn {
	b.Helper()
	addrs := make([]string, n)
	listeners := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	conns := make([]*tcpnet.Conn, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conns[i], errs[i] = tcpnet.Dial(tcpnet.Config{
				ID:           i,
				Addrs:        addrs,
				T:            (n - 1) / 3,
				Delta:        5 * time.Second,
				Listener:     listeners[i],
				RejoinWindow: 1,
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			b.Fatalf("party %d dial: %v", i, err)
		}
	}
	b.Cleanup(func() {
		for _, c := range conns {
			c.Close()
		}
	})
	return conns
}

// runSessionWave runs `sessions` concurrent aa.Run sessions on every
// party's mux and waits for all of them; sid numbering starts at sid0 so
// successive waves don't reuse ids.
func runSessionWave(b *testing.B, muxes []*sessmux.Mux, n, sessions int, sid0 uint64) {
	b.Helper()
	// D/ε = 4 → ⌈log₂ 4⌉+2 = 4 virtual rounds per session.
	diameter := big.NewInt(64)
	eps := big.NewInt(16)
	var wg sync.WaitGroup
	errCh := make(chan error, n*sessions)
	for p, m := range muxes {
		// Open the whole wave before driving any session: every session
		// must start on the same tick on every party.
		opened := make([]*sessmux.Session, sessions)
		for i := 0; i < sessions; i++ {
			s, err := m.Open(sid0+uint64(i), n, (n-1)/3)
			if err != nil {
				b.Fatal(err)
			}
			opened[i] = s
		}
		for i, s := range opened {
			wg.Add(1)
			go func(p, i int, s *sessmux.Session) {
				defer wg.Done()
				defer s.Close()
				input := big.NewInt(int64(p*sessions+i) % 64)
				if _, err := aa.Run(s, fmt.Sprintf("s%d", s.Sid()), input, diameter, eps); err != nil {
					errCh <- fmt.Errorf("party %d session %d: %w", p, s.Sid(), err)
				}
			}(p, i, s)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		b.Fatal(err)
	}
}

// benchSessionThroughput runs `sessions` concurrent approximate-agreement
// sessions per wave, all multiplexed over one n-party TCP mesh (session
// payloads ride by reference through sessmux into the per-peer pooled
// frame; every peer's share of a tick is one write carrying all sessions).
// One op is one full wave. A per-party retained-heap budget guards against
// the mux or the wire path accumulating per-session state.
func benchSessionThroughput(b *testing.B, n, sessions int) {
	conns := benchMesh(b, n)
	muxes := make([]*sessmux.Mux, n)
	for i, c := range conns {
		muxes[i] = sessmux.New(c)
	}
	var sid0 uint64
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		runSessionWave(b, muxes, n, sessions, sid0)
		sid0 += uint64(sessions)
	}
	elapsed := time.Since(start)
	b.StopTimer()
	b.ReportMetric(float64(sessions*b.N)/elapsed.Seconds(), "sessions/sec")

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	perParty := float64(ms.HeapAlloc) / float64(n)
	// Generous: ~4× the observed footprint, catches a leak that retains
	// per-session state past Close, not benign noise. All n parties (and
	// their read loops and frame pools) live in this one process.
	const budget = 24 << 20
	if perParty > budget {
		b.Fatalf("heap budget exceeded: %.0f B/party retained after GC (budget %d B/party)", perParty, budget)
	}
	b.ReportMetric(perParty/(1<<20), "MiB/party")

	st := muxes[0].Stats()
	if st.BytesCopied != 0 {
		b.Fatalf("payloads were flattened on a VecNet base: %d bytes copied", st.BytesCopied)
	}
	b.ReportMetric(float64(st.Packets)/float64(st.Ticks), "frames/tick")
}

// BenchmarkSessionThroughput: 1024 concurrent sessions at n=16, a
// 16k-message tick. It is scripts/ci.sh's quadratic-tick tripwire — any
// per-tick work quadratic in the tick's messages blows its 30 s budget —
// not a deployment figure: aa.Run over a one-round rejoin tail is not the
// paper's protocol as deployed (the repo's benchmark, bench/, measures
// that). One op is 1024 whole sessions, 0.4–0.6 s on a 2-core host.
func BenchmarkSessionThroughput(b *testing.B) {
	if testing.Short() {
		b.Skip("1024-session wave is not a -short workload")
	}
	benchSessionThroughput(b, 16, 1024)
}

// BenchmarkSessionThroughput_n31: the paper's flagship cluster size
// (n=31, t=10) at 256 concurrent sessions.
func BenchmarkSessionThroughput_n31(b *testing.B) {
	if testing.Short() {
		b.Skip("n=31 mesh is not a -short workload")
	}
	benchSessionThroughput(b, 31, 256)
}

// BenchmarkSessionThroughputSolo is the status-quo-ante baseline: the
// same aa.Run sessions executed one at a time over the bare mesh — every
// session pays its own physical rounds and per-peer writes, nothing
// coalesces. The sessions/sec gap against BenchmarkSessionThroughput is
// what the session mux buys.
func BenchmarkSessionThroughputSolo(b *testing.B) {
	if testing.Short() {
		b.Skip("TCP mesh is not a -short workload")
	}
	const n, sessions = 16, 32
	conns := benchMesh(b, n)
	diameter := big.NewInt(64)
	eps := big.NewInt(16)
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		for sess := 0; sess < sessions; sess++ {
			var wg sync.WaitGroup
			errCh := make(chan error, n)
			for p, c := range conns {
				wg.Add(1)
				go func(p int, net transport.Net) {
					defer wg.Done()
					input := big.NewInt(int64(p+sess) % 64)
					if _, err := aa.Run(net, "solo", input, diameter, eps); err != nil {
						errCh <- err
					}
				}(p, c)
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				b.Fatal(err)
			}
		}
	}
	elapsed := time.Since(start)
	b.StopTimer()
	b.ReportMetric(float64(sessions*b.N)/elapsed.Seconds(), "sessions/sec")
}

// BenchmarkSessmuxFlushVec: one tick of 64 sessions broadcasting 1 KiB to
// 4 parties over a stub VecNet base — the merge in isolation. Its B/op
// excludes every payload byte; ci.sh pins it with -guard-allocs.
func BenchmarkSessmuxFlushVec(b *testing.B) {
	m := sessmux.New(&vecStubNet{stubNet{n: 4}})
	const sessions = 64
	payload := make([]byte, 1024)
	batch := make([]transport.Packet, 4)
	for to := range batch {
		batch[to] = transport.Packet{To: transport.PartyID(to), Tag: "b", Payload: payload}
	}
	opened := make([]*sessmux.Session, sessions)
	for i := range opened {
		s, err := m.Open(uint64(i), 4, 1)
		if err != nil {
			b.Fatal(err)
		}
		opened[i] = s
	}
	b.ReportAllocs()
	b.SetBytes(int64(sessions * len(batch) * len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for _, s := range opened {
			wg.Add(1)
			go func(s *sessmux.Session) {
				defer wg.Done()
				if _, err := s.Exchange(batch); err != nil {
					b.Error(err)
				}
			}(s)
		}
		wg.Wait()
	}
}

// BenchmarkSessmuxTickTCP is the whole tick, end to end: 64 live sessions on
// each of 4 parties, every session broadcasting one byte per virtual round
// (the phase-king round that is 126 of mux_closed's 138 per agreement)
// through sessmux over a loopback tcpnet mesh. One op is one tick of the
// whole mesh — all four parties' fan-out, merge, encode, write, read, inbox
// and demux — so allocs/op is the steady-state tick ROADMAP item 3 asks to
// allocate nothing; ci.sh pins it with -guard-allocs at a -benchtime long
// enough that goroutine parks and the frame pool's refills after a GC cycle
// amortise below one.
func BenchmarkSessmuxTickTCP(b *testing.B) {
	const n, sessions = 4, 64
	payload := []byte{1}
	var opened []*sessmux.Session
	for _, c := range benchMesh(b, n) {
		m := sessmux.New(c)
		for sid := uint64(0); sid < sessions; sid++ {
			s, err := m.Open(sid, n, 1)
			if err != nil {
				b.Fatal(err)
			}
			opened = append(opened, s)
		}
	}
	errs := make([]error, len(opened))
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for i, s := range opened {
		wg.Add(1)
		go func(i int, s *sessmux.Session) {
			defer wg.Done()
			defer s.Close() // a failed session must not wedge its siblings' ticks
			for r := 0; r < b.N && errs[i] == nil; r++ {
				_, errs[i] = transport.ExchangeAll(s, "tick", payload)
			}
		}(i, s)
	}
	wg.Wait()
	b.StopTimer()
	for i, err := range errs {
		if err != nil {
			b.Fatalf("session %d: %v", i, err)
		}
	}
}

// vecStubNet upgrades stubNet to a VecNet: merged pieces are handed over
// by reference.
type vecStubNet struct {
	stubNet
}

func (s *vecStubNet) ExchangeVec(out []transport.VecPacket) ([]transport.Message, error) {
	return s.in, nil
}

var _ transport.VecNet = (*vecStubNet)(nil)
