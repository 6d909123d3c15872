package tcpnet_test

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"reflect"
	"slices"
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

// TestExchangeAllWireBytes: a broadcast goes out as one frame shared by
// every link, carrying the very bytes Exchange(Broadcast(…)) puts there,
// and delivers the same inbox, whichever way it is sent:
// transport.ExchangeAll through a wrapper that forwards only Exchange (the
// Conn finds the broadcast by payload identity, so no wrapper can hide it)
// or ExchangeVec with one transport.All entry. A round that sends the one
// payload to every party in reverse order is no broadcast: it goes out one
// frame per peer, with the same bytes on every link. An ExchangeNone round
// is one shared frame too, the empty frame the flat encoder writes.
func TestExchangeAllWireBytes(t *testing.T) {
	const n = 4
	payload := bytes.Repeat([]byte{0xb7}, 300)
	wantSent, wantIn := wireRound(t, n, func(c *tcpnet.Conn) ([]transport.Message, error) {
		return c.Exchange(transport.Broadcast(c, "t", payload))
	})
	if len(wantSent[0]) <= len(payload) {
		t.Fatalf("the reference round put %d bytes on the wire for a %d-byte payload", len(wantSent[0]), len(payload))
	}
	var arena wire.Arena
	none := arena.EncodeFrame(0, nil)
	defer none.Release()
	noneSent := make([][]byte, n-1)
	for j := range noneSent {
		noneSent[j] = none.Bytes()
	}
	columns := []struct {
		name     string
		round    func(c *tcpnet.Conn) ([]transport.Message, error)
		oneFrame bool // must go out as one frame shared by every link
		sent     [][]byte
		in       []transport.Message
	}{
		{name: "ExchangeAll", oneFrame: true, sent: wantSent, in: wantIn,
			round: func(c *tcpnet.Conn) ([]transport.Message, error) {
				var fan []transport.Packet
				return transport.ExchangeAll(exchangeOnly{c}, "t", payload, &fan)
			}},
		{name: "ExchangeVec", oneFrame: true, sent: wantSent, in: wantIn,
			round: func(c *tcpnet.Conn) ([]transport.Message, error) {
				return c.ExchangeVec([]transport.VecPacket{{To: transport.All, Tag: "t", Vec: [][]byte{payload[:100], payload[100:]}}})
			}},
		{name: "reversed", sent: wantSent, in: wantIn,
			round: func(c *tcpnet.Conn) ([]transport.Message, error) {
				out := transport.Broadcast(c, "t", payload)
				slices.Reverse(out)
				return c.Exchange(out)
			}},
		{name: "ExchangeNone", oneFrame: true, sent: noneSent,
			round: func(c *tcpnet.Conn) ([]transport.Message, error) {
				return transport.ExchangeNone(c)
			}},
	}
	for _, col := range columns {
		t.Run(col.name, func(t *testing.T) {
			shared := false
			gotSent, gotIn := wireRound(t, n, func(c *tcpnet.Conn) ([]transport.Message, error) {
				in, err := col.round(c)
				shared = c.SharedFrame(0)
				return in, err
			})
			if col.oneFrame && !shared {
				t.Error("the round went out as one frame per peer, not one frame shared by every link")
			}
			for j := range col.sent {
				if !bytes.Equal(gotSent[j], col.sent[j]) {
					t.Errorf("link to %d: wrote %x, want %x", j, gotSent[j], col.sent[j])
				}
			}
			if len(gotIn) != len(col.in) || (len(gotIn) > 0 && !reflect.DeepEqual(gotIn, col.in)) {
				t.Errorf("inbox %v, want %v", gotIn, col.in)
			}
		})
	}
}
