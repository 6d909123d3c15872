package tcpnet_test

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"convexagreement/internal/tcpnet"
	"convexagreement/internal/transport"
	"convexagreement/internal/wire"
)

// wireRound dials party n−1 of an n-party mesh whose other parties are raw
// sockets held by the test, runs one round on it, and returns the bytes it
// wrote to each peer along with what the round delivered. The raw peers
// answer the handshake and send nothing, so the round closes on Δ.
func wireRound(t *testing.T, n int, round func(c *tcpnet.Conn) ([]transport.Message, error)) ([][]byte, []transport.Message) {
	t.Helper()
	cfgs := newCluster(t, n, 0)
	id := n - 1
	peers := make([]net.Conn, id)
	accepted := make(chan error, id)
	for j := 0; j < id; j++ {
		go func(j int) {
			conn, err := cfgs[j].Listener.Accept()
			if err != nil {
				accepted <- err
				return
			}
			peers[j] = conn
			hello := make([]byte, 2) // (id, round 0): one varint byte each
			if _, err := io.ReadFull(conn, hello); err != nil {
				accepted <- err
				return
			}
			_, err = conn.Write([]byte{byte(j), 0})
			accepted <- err
		}(j)
	}
	cfg := cfgs[id]
	cfg.Listener.Close() // the highest id only dials
	cfg.Listener = nil
	cfg.Delta = 100 * time.Millisecond
	c, err := tcpnet.Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for j := 0; j < id; j++ {
		if err := <-accepted; err != nil {
			t.Fatal(err)
		}
		defer peers[j].Close()
	}
	in, err := round(c)
	if err != nil {
		t.Fatal(err)
	}
	in = append([]transport.Message(nil), in...) // the slice is the Conn's
	sent := make([][]byte, id)
	for j, conn := range peers {
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		size, err := wire.ReadUvarint(conn)
		if err != nil {
			t.Fatalf("peer %d: %v", j, err)
		}
		frame := binary.AppendUvarint(nil, size)
		frame = append(frame, make([]byte, size)...)
		if _, err := io.ReadFull(conn, frame[len(frame)-int(size):]); err != nil {
			t.Fatalf("peer %d: %v", j, err)
		}
		sent[j] = frame
	}
	return sent, in
}

// exchangeOnly is a wrapper that forwards Exchange and nothing else, as
// any layer does that knows a Net only by its interface.
type exchangeOnly struct{ transport.Net }

// TestExchangeAllWireBytes: transport.ExchangeAll through a wrapper that
// forwards only Exchange encodes one frame and sends it on every link —
// the very bytes Exchange(Broadcast(…)) puts there — and delivers the same
// inbox. The Conn finds the broadcast by payload identity, so no wrapper
// can hide it.
func TestExchangeAllWireBytes(t *testing.T) {
	const n = 4
	payload := bytes.Repeat([]byte{0xb7}, 300)
	wantSent, wantIn := wireRound(t, n, func(c *tcpnet.Conn) ([]transport.Message, error) {
		return c.Exchange(transport.Broadcast(c, "t", payload))
	})
	shared := false
	gotSent, gotIn := wireRound(t, n, func(c *tcpnet.Conn) ([]transport.Message, error) {
		var fan []transport.Packet
		in, err := transport.ExchangeAll(exchangeOnly{c}, "t", payload, &fan)
		shared = c.SharedFrame(0)
		return in, err
	})
	if !shared {
		t.Error("the round went out as one frame per peer, not one frame shared by every link")
	}
	if len(wantSent[0]) <= len(payload) {
		t.Fatalf("the reference round put %d bytes on the wire for a %d-byte payload", len(wantSent[0]), len(payload))
	}
	for j := range wantSent {
		if !bytes.Equal(gotSent[j], wantSent[j]) {
			t.Errorf("link to %d: ExchangeAll wrote %x, Exchange(Broadcast) %x", j, gotSent[j], wantSent[j])
		}
	}
	if !reflect.DeepEqual(gotIn, wantIn) {
		t.Errorf("inbox %v, want %v", gotIn, wantIn)
	}
}
