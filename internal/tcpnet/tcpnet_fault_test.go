package tcpnet_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"convexagreement/internal/tcpnet"
	"convexagreement/internal/transport"
	"convexagreement/internal/wire"
)

// rawPeer dials party 0's listener and handshakes as party 1, returning the
// raw socket so the test can speak arbitrary bytes on an authenticated link.
func rawPeer(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := conn.Write([]byte{1, 0}); err != nil { // hello: id 1, round 0
		t.Fatal(err)
	}
	// The accepting side replies with its own (id, round) hello; drain it so
	// the test's raw writes are the next thing the peer parses.
	reply := make([]byte, 2)
	if _, err := io.ReadFull(conn, reply); err != nil {
		t.Fatal(err)
	}
	return conn
}

// dialParty0 establishes party 0's side of a 2-party mesh whose peer is a
// raw socket driven by the test.
func dialParty0(t *testing.T, cfgs []tcpnet.Config) (*tcpnet.Conn, net.Conn) {
	t.Helper()
	var (
		conn *tcpnet.Conn
		err  error
		wg   sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err = tcpnet.Dial(cfgs[0])
	}()
	raw := rawPeer(t, cfgs[0].Addrs[0])
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn, raw
}

// waitFaulty polls until the peer set demoted to silent matches want.
func waitFaulty(t *testing.T, conn *tcpnet.Conn, want []int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		got := conn.Faulty()
		if len(got) == len(want) {
			match := true
			for i := range got {
				if got[i] != want[i] {
					match = false
				}
			}
			if match {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("Faulty() = %v, want %v", conn.Faulty(), want)
}

// TestGarbledFrameDemotesPeer: a peer whose length prefix is a malformed
// varint is a protocol violator — demoted to silent, surfaced via Faulty,
// and never waited Δ for again.
func TestGarbledFrameDemotesPeer(t *testing.T) {
	cfgs := newCluster(t, 2, 0)
	cfgs[0].Delta = 300 * time.Millisecond
	conn, raw := dialParty0(t, cfgs)
	// An 11-byte varint can never terminate: protocol violation.
	if _, err := raw.Write([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}); err != nil {
		t.Fatal(err)
	}
	waitFaulty(t, conn, []int{1})
	// Rounds now close immediately: no live peers to wait for.
	start := time.Now()
	in, err := transport.ExchangeAll(conn, "x", []byte{7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(in) != 1 || in[0].From != 0 {
		t.Fatalf("got %v, want only self-delivery", in)
	}
	if elapsed := time.Since(start); elapsed > cfgs[0].Delta {
		t.Fatalf("round over a demoted peer took %v (waited Δ for it)", elapsed)
	}
}

// TestOversizedFrameDemotesPeer: a frame announcing a body over the 64 MiB
// cap is rejected on the prefix alone — no allocation — and the peer is
// demoted to silent.
func TestOversizedFrameDemotesPeer(t *testing.T) {
	cfgs := newCluster(t, 2, 0)
	cfgs[0].Delta = 300 * time.Millisecond
	conn, raw := dialParty0(t, cfgs)
	var hdr [binary.MaxVarintLen64]byte
	m := binary.PutUvarint(hdr[:], (64<<20)+1)
	if _, err := raw.Write(hdr[:m]); err != nil {
		t.Fatal(err)
	}
	waitFaulty(t, conn, []int{1})
	if in, err := transport.ExchangeAll(conn, "x", []byte{7}, nil); err != nil || len(in) != 1 {
		t.Fatalf("post-demotion round: msgs=%v err=%v", in, err)
	}
}

// TestEarlyFramesCloseRounds: a peer that runs ahead delivers its frame for
// round r + 1 before this party's round r closes. Such a frame is not
// counted toward round r, and the round it belongs to must count it the
// moment it opens: with Δ = 10 s, 50 rounds whose frames all arrived early
// finish in well under one Δ.
func TestEarlyFramesCloseRounds(t *testing.T) {
	const rounds = 50
	cfgs := newCluster(t, 2, 0)
	cfgs[0].Delta = 10 * time.Second
	conn, raw := dialParty0(t, cfgs)
	go io.Copy(io.Discard, raw) // party 0's frames; the test checks only what it delivers
	var a wire.Arena
	for r := uint64(0); r < rounds; r++ {
		f := a.EncodeFrame(r, [][]byte{{1, byte(r)}})
		if _, err := raw.Write(f.Bytes()); err != nil {
			t.Fatal(err)
		}
		f.Release()
	}
	start := time.Now()
	for r := 0; r < rounds; r++ {
		in, err := transport.ExchangeAll(conn, "x", []byte{0, byte(r)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(in) != 2 || in[1].From != 1 || !bytes.Equal(in[1].Payload, []byte{1, byte(r)}) {
			t.Fatalf("round %d: inbox %v, want party 1's early frame", r, in)
		}
		if elapsed := time.Since(start); elapsed > cfgs[0].Delta/5 {
			t.Fatalf("rounds 0–%d of early frames took %v: a round waited on a frame it already held", r, elapsed)
		}
	}
}

// TestStalledReaderDropsLink: a peer that stops reading fills its socket
// and blocks the next write. The write deadline — re-armed only once it has
// drifted by Δ/8, so never more than Δ ahead — fails that write within Δ
// and takes the link down: no round outlasts Δ by more than its own work,
// and once the link is down rounds stop waiting for the peer.
func TestStalledReaderDropsLink(t *testing.T) {
	const delta = 500 * time.Millisecond
	cfgs := newCluster(t, 2, 0)
	cfgs[0].Delta = delta
	cfgs[0].RejoinWindow = 1
	conn, _ := dialParty0(t, cfgs) // the raw peer never reads, and never sends
	payload := make([]byte, 4<<20-64)
	for r := 0; r < 20; r++ {
		start := time.Now()
		in, err := transport.ExchangeAll(conn, "x", payload, nil)
		if err != nil {
			t.Fatal(err)
		}
		elapsed := time.Since(start)
		if elapsed > delta+delta/2 {
			t.Fatalf("round %d took %v: a blocked write outlived its Δ = %v deadline", r, elapsed, delta)
		}
		if elapsed < delta/4 {
			// Only a down link closes a round the peer sends nothing in
			// before Δ.
			if len(in) != 1 {
				t.Fatalf("round %d: inbox %v, want only the self-delivery", r, in)
			}
			return
		}
	}
	t.Fatal("20 rounds of 4 MiB to a peer that never reads did not take its link down")
}

// TestReconnectRestoresLink: severing the TCP connection mid-run is a
// transient network fault — the dialing side re-dials, re-handshakes, and
// the link carries rounds again.
func TestReconnectRestoresLink(t *testing.T) {
	cfgs := newCluster(t, 2, 0)
	for i := range cfgs {
		cfgs[i].Delta = 300 * time.Millisecond
		cfgs[i].ReconnectBase = 20 * time.Millisecond
	}
	conns := dialAll(t, cfgs)

	exchangeBoth := func(stamp byte) ([2][]transport.Message, [2]error) {
		var out [2][]transport.Message
		var errs [2]error
		var wg sync.WaitGroup
		for i, c := range conns {
			wg.Add(1)
			go func(i int, c *tcpnet.Conn) {
				defer wg.Done()
				out[i], errs[i] = transport.ExchangeAll(c, "r", []byte{stamp}, nil)
			}(i, c)
		}
		wg.Wait()
		return out, errs
	}

	if in, errs := exchangeBoth(0); errs[0] != nil || errs[1] != nil || len(in[0]) != 2 || len(in[1]) != 2 {
		t.Fatalf("pre-break round failed: %v %v", in, errs)
	}
	// Party 1 is the dialer for peer 0; breaking from its side exercises
	// the active reconnect path (party 0 re-accepts passively).
	conns[1].BreakLink(0)
	time.Sleep(800 * time.Millisecond) // backoff + jitter + re-handshake

	in, errs := exchangeBoth(1)
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("post-reconnect round errored: %v", errs)
	}
	for i := range conns {
		if len(in[i]) != 2 {
			t.Fatalf("party %d got %d messages after reconnect, want 2", i, len(in[i]))
		}
		if f := conns[i].Faulty(); len(f) != 0 {
			t.Fatalf("party %d demoted %v after a recoverable fault", i, f)
		}
	}
}

// TestReconnectExhaustedDemotesPeer: when the peer is truly gone (process
// down, listener closed), bounded reconnection gives up and demotes it to
// silent, so the survivor's rounds close immediately instead of burning Δ
// forever.
func TestReconnectExhaustedDemotesPeer(t *testing.T) {
	cfgs := newCluster(t, 2, 0)
	for i := range cfgs {
		cfgs[i].Delta = 200 * time.Millisecond
		cfgs[i].ReconnectAttempts = 2
		cfgs[i].ReconnectBase = 10 * time.Millisecond
	}
	conns := dialAll(t, cfgs)
	conns[0].Close() // party 0 dies, taking its listener with it
	waitFaulty(t, conns[1], []int{0})
	start := time.Now()
	in, err := transport.ExchangeAll(conns[1], "x", []byte{3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(in) != 1 || in[0].From != 1 {
		t.Fatalf("got %v, want only self-delivery", in)
	}
	if elapsed := time.Since(start); elapsed > cfgs[1].Delta {
		t.Fatalf("round took %v with the only peer demoted", elapsed)
	}
}

// TestCloseUnblocksExchange: Close during a blocked Exchange must release
// it promptly with ErrClosed, not leave it waiting out Δ.
func TestCloseUnblocksExchange(t *testing.T) {
	cfgs := newCluster(t, 2, 0)
	for i := range cfgs {
		cfgs[i].Delta = 10 * time.Second // long enough that only Close can end the round
	}
	conns := dialAll(t, cfgs)
	errCh := make(chan error, 1)
	go func() {
		_, err := transport.ExchangeAll(conns[0], "x", []byte{1}, nil)
		errCh <- err
	}()
	time.Sleep(100 * time.Millisecond) // let the Exchange block on party 1's frame
	conns[0].Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, tcpnet.ErrClosed) {
			t.Fatalf("unblocked with %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Exchange still blocked after Close")
	}
}
