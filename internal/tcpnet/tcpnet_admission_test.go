package tcpnet_test

import (
	"encoding/binary"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"convexagreement/internal/tcpnet"
	"convexagreement/internal/transport"
	"convexagreement/internal/wire"
)

// rawPeerID is rawPeer for an arbitrary claimed id: it dials addr,
// handshakes as party id at round 0, and returns the raw socket.
func rawPeerID(t *testing.T, addr string, id int) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := conn.Write([]byte{byte(id), 0}); err != nil {
		t.Fatal(err)
	}
	reply := make([]byte, 2)
	if _, err := io.ReadFull(conn, reply); err != nil {
		t.Fatal(err)
	}
	return conn
}

// wantDemotion asserts Stats records exactly one demotion, for peer with
// reason, and that the per-peer counters carry the same verdict.
func wantDemotion(t *testing.T, conn *tcpnet.Conn, peer int, reason wire.Reason) {
	t.Helper()
	s := conn.Stats()
	if len(s.Demotions) != 1 || s.Demotions[0].Peer != peer || s.Demotions[0].Reason != reason {
		t.Fatalf("Demotions = %+v, want [{Peer:%d Reason:%v}]", s.Demotions, peer, reason)
	}
	for _, ps := range s.Peers {
		if ps.Peer == peer {
			if ps.Demoted != reason {
				t.Fatalf("PeerStats[%d].Demoted = %v, want %v", peer, ps.Demoted, reason)
			}
			return
		}
	}
	t.Fatalf("no PeerStats entry for peer %d: %+v", peer, s.Peers)
}

// TestBudgetDemotesPeer: a frame under the structural 64 MiB cap but over
// the configured per-frame budget is refused on its length prefix alone
// and the peer is demoted with ReasonBudget.
func TestBudgetDemotesPeer(t *testing.T) {
	cfgs := newCluster(t, 2, 0)
	cfgs[0].Delta = 300 * time.Millisecond
	cfgs[0].Budget = &wire.Budget{FrameBytes: 1024}
	conn, raw := dialParty0(t, cfgs)
	frame := new(wire.Arena).EncodeFrame(0, [][]byte{make([]byte, 4096)}).Bytes()
	if _, err := raw.Write(frame); err != nil {
		t.Fatal(err)
	}
	waitFaulty(t, conn, []int{1})
	wantDemotion(t, conn, 1, wire.ReasonBudget)
	s := conn.Stats()
	if s.Peers[0].FramesRejected == 0 {
		t.Fatalf("no rejected frames counted: %+v", s.Peers)
	}
}

// TestRateDemotesPeer: a storm of individually legal frames drains the
// round-clock token bucket (the local party never advances its round, so
// no tokens replenish) and the peer is demoted with ReasonRate.
func TestRateDemotesPeer(t *testing.T) {
	cfgs := newCluster(t, 2, 0)
	cfgs[0].Delta = 300 * time.Millisecond
	cfgs[0].Budget = &wire.Budget{FrameBytes: 1 << 16, RoundFrames: 2, BurstRounds: 2}
	conn, raw := dialParty0(t, cfgs)
	frame := new(wire.Arena).EncodeFrame(0, [][]byte{[]byte("x")}).Bytes()
	for i := 0; i < 8; i++ { // capacity is 2×2 = 4 frames
		if _, err := raw.Write(frame); err != nil {
			break // the victim may already have cut the connection
		}
	}
	waitFaulty(t, conn, []int{1})
	wantDemotion(t, conn, 1, wire.ReasonRate)
	s := conn.Stats()
	if got := s.Peers[0].FramesAdmitted; got != 4 {
		t.Fatalf("admitted %d frames, bucket capacity is 4", got)
	}
}

// TestStallDemotesPeer: a peer that starts a frame and then trickles —
// partial body, connection held open — is caught by the read-progress
// deadline and demoted with ReasonStall, not treated as a dead link.
func TestStallDemotesPeer(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the 2s idle floor")
	}
	cfgs := newCluster(t, 2, 0)
	cfgs[0].Delta = 100 * time.Millisecond // idle floor (2s) dominates
	conn, raw := dialParty0(t, cfgs)
	frame := new(wire.Arena).EncodeFrame(0, [][]byte{make([]byte, 256)}).Bytes()
	if _, err := raw.Write(frame[:16]); err != nil { // announce, then stall mid-body
		t.Fatal(err)
	}
	waitFaulty(t, conn, []int{1})
	wantDemotion(t, conn, 1, wire.ReasonStall)
}

// TestProtocolDemotionReason: the PR 2 garbled-frame demotion now carries
// a structured verdict — ReasonProtocol — in Stats.
func TestProtocolDemotionReason(t *testing.T) {
	cfgs := newCluster(t, 2, 0)
	cfgs[0].Delta = 300 * time.Millisecond
	conn, raw := dialParty0(t, cfgs)
	if _, err := raw.Write([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}); err != nil {
		t.Fatal(err)
	}
	waitFaulty(t, conn, []int{1})
	wantDemotion(t, conn, 1, wire.ReasonProtocol)
}

// TestFaultySortedDeterministic: Faulty() (and Stats.Demotions/Peers) are
// sorted by party id regardless of demotion order — peer 2 misbehaves
// before peer 1 here.
func TestFaultySortedDeterministic(t *testing.T) {
	cfgs := newCluster(t, 3, 0)
	cfgs[0].Delta = 300 * time.Millisecond
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
	raw1 := rawPeerID(t, cfgs[0].Addrs[0], 1)
	raw2 := rawPeerID(t, cfgs[0].Addrs[0], 2)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })

	garbage := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
	if _, err := raw2.Write(garbage); err != nil {
		t.Fatal(err)
	}
	waitFaulty(t, conn, []int{2})
	if _, err := raw1.Write(garbage); err != nil {
		t.Fatal(err)
	}
	waitFaulty(t, conn, []int{1, 2})

	s := conn.Stats()
	if len(s.Demotions) != 2 || s.Demotions[0].Peer != 1 || s.Demotions[1].Peer != 2 {
		t.Fatalf("Demotions not sorted by peer: %+v", s.Demotions)
	}
	if len(s.Peers) != 2 || s.Peers[0].Peer != 1 || s.Peers[1].Peer != 2 {
		t.Fatalf("Peers not sorted by peer: %+v", s.Peers)
	}
}

// TestRoundHorizonDropsFutureFrames: frames parked at absurd future rounds
// are dropped (counted, no demotion — an honest fast peer may legitimately
// be ahead), while frames within the horizon are delivered.
func TestRoundHorizonDropsFutureFrames(t *testing.T) {
	cfgs := newCluster(t, 2, 0)
	cfgs[0].Delta = 300 * time.Millisecond
	cfgs[0].RoundHorizon = 4
	conn, raw := dialParty0(t, cfgs)
	if _, err := raw.Write(new(wire.Arena).EncodeFrame(1000, [][]byte{[]byte("future")}).Bytes()); err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write(new(wire.Arena).EncodeFrame(0, [][]byte{[]byte("now")}).Bytes()); err != nil {
		t.Fatal(err)
	}
	in, err := transport.ExchangeAll(conn, "x", []byte{1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sawPeer bool
	for _, m := range in {
		if m.From == 1 && string(m.Payload) == "now" {
			sawPeer = true
		}
	}
	if !sawPeer {
		t.Fatalf("in-horizon frame not delivered: %v", in)
	}
	deadline := time.Now().Add(2 * time.Second)
	for conn.Stats().FramesDropped == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	s := conn.Stats()
	if s.FramesDropped != 1 {
		t.Fatalf("FramesDropped = %d, want 1", s.FramesDropped)
	}
	if f := conn.Faulty(); len(f) != 0 {
		t.Fatalf("future frame demoted the peer: %v", f)
	}
}

// TestHelloBurstCapsHandshakes: an unauthenticated dialer churning the
// accept path is cut off at the per-host cap, with the refusals counted.
func TestHelloBurstCapsHandshakes(t *testing.T) {
	cfgs := newCluster(t, 2, 0)
	cfgs[0].Delta = 300 * time.Millisecond
	cfgs[0].HelloBurst = 3
	conn, _ := dialParty0(t, cfgs) // consumes 1 of the 3 hello attempts

	refused := 0
	for i := 0; i < 6; i++ {
		raw, err := net.Dial("tcp", cfgs[0].Addrs[0])
		if err != nil {
			t.Fatal(err)
		}
		raw.Write([]byte{1, 0})
		raw.SetReadDeadline(time.Now().Add(2 * time.Second))
		reply := make([]byte, 2)
		if _, err := io.ReadFull(raw, reply); err != nil {
			refused++ // closed without a hello reply: over the cap
		}
		raw.Close()
	}
	if refused < 4 { // attempts 3..6 are over the cap of 3
		t.Fatalf("only %d handshakes refused, want ≥ 4", refused)
	}
	if got := conn.Stats().HellosRejected; got < 4 {
		t.Fatalf("HellosRejected = %d, want ≥ 4", got)
	}
}

// TestHelloAbsurdRoundRejected: a hello announcing a round with the top
// bits set is a probe of the rejoin machinery, not a peer — dropped.
func TestHelloAbsurdRoundRejected(t *testing.T) {
	cfgs := newCluster(t, 2, 0)
	cfgs[0].Delta = 300 * time.Millisecond
	conn, _ := dialParty0(t, cfgs)

	raw, err := net.Dial("tcp", cfgs[0].Addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	var hello []byte
	hello = append(hello, 1) // id 1
	hello = binary.AppendUvarint(hello, (1<<62)+1)
	if _, err := raw.Write(hello); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(raw, make([]byte, 2)); err == nil {
		t.Fatal("absurd hello round got a handshake reply")
	}
	deadline := time.Now().Add(2 * time.Second)
	for conn.Stats().HellosRejected == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := conn.Stats().HellosRejected; got == 0 {
		t.Fatal("absurd hello round not counted as rejected")
	}
}

// TestHonestTrafficUnderDefaultBudget: the default admission gate is
// invisible to honest parties — a multi-round mesh run completes with
// zero rejections and zero demotions.
func TestHonestTrafficUnderDefaultBudget(t *testing.T) {
	cfgs := newCluster(t, 3, 0)
	for i := range cfgs {
		cfgs[i].Delta = 2 * time.Second
	}
	conns := dialAll(t, cfgs)
	for r := 0; r < 20; r++ {
		var wg sync.WaitGroup
		for i, c := range conns {
			wg.Add(1)
			go func(i int, c *tcpnet.Conn) {
				defer wg.Done()
				if _, err := transport.ExchangeAll(c, "m", []byte{byte(r), byte(i)}, nil); err != nil {
					t.Errorf("party %d round %d: %v", i, r, err)
				}
			}(i, c)
		}
		wg.Wait()
	}
	for i, c := range conns {
		s := c.Stats()
		if len(s.Demotions) != 0 {
			t.Fatalf("party %d demoted honest peers: %+v", i, s.Demotions)
		}
		for _, ps := range s.Peers {
			if ps.FramesRejected != 0 {
				t.Fatalf("party %d rejected honest frames from %d: %+v", i, ps.Peer, ps)
			}
			if ps.FramesAdmitted == 0 {
				t.Fatalf("party %d admitted nothing from %d", i, ps.Peer)
			}
		}
	}
}
