// Package transporttest provides a conformance battery for transport.Net
// implementations. All three transports in this repository — the
// adversarial simulator (sim), the TCP mesh (tcpnet), and the in-process
// hub (channet) — run the same battery, so a protocol that works on one is
// guaranteed the same round semantics on the others.
package transporttest

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"convexagreement/internal/transport"
)

// Cluster runs n party functions over a fresh connected transport instance
// and blocks until all return, propagating errors. Each implementation
// provides one.
type Cluster func(t *testing.T, n, tc int, fns []func(net transport.Net) error)

// Conformance runs the full contract battery against the given cluster
// runner.
func Conformance(t *testing.T, run Cluster) {
	t.Run("identity", func(t *testing.T) { testIdentity(t, run) })
	t.Run("all-to-all", func(t *testing.T) { testAllToAll(t, run) })
	t.Run("empty-rounds", func(t *testing.T) { testEmptyRounds(t, run) })
	t.Run("ordering", func(t *testing.T) { testOrdering(t, run) })
	t.Run("self-delivery", func(t *testing.T) { testSelfDelivery(t, run) })
	t.Run("out-of-range-drop", func(t *testing.T) { testOutOfRange(t, run) })
	t.Run("unicast", func(t *testing.T) { testUnicast(t, run) })
	t.Run("out-reuse", func(t *testing.T) { ConformanceOutReuse(t, run, 0) })
}

// ConformanceOutReuse holds a transport to the other half of transport.Net's
// lifetime rule: a Net is done with out — the slice and its payload bytes —
// when Exchange returns. Every party refills one out slice round after
// round, its packets on one send buffer, and the moment Exchange returns
// overwrites every packet in the slice with junk addressed to everyone and
// every byte of the buffer with junk too; only then, once every party has
// scribbled, does it check its inbox. A transport that still reads the
// slice — at delivery, or from a queue of held packets — delivers the junk
// packets, and one that delivers a sender's payload by reference delivers
// the junk bytes. delay is how many rounds the transport under test holds
// every packet between two parties (0 for a plain transport; a fault
// injector with a delay plan passes its delay): a message from a peer
// delivered in round r must be the one stamped r−delay, self-delivery is
// immediate, and from round delay on every party hears everyone.
func ConformanceOutReuse(t *testing.T, run Cluster, delay int) {
	const n, rounds = 3, 6
	junk := []byte{0xee, 0xee, 0xee, 0xee}
	// scribbled[r] is done once every party has scribbled over round r's
	// packets (or returned).
	var scribbled [rounds]sync.WaitGroup
	for r := range scribbled {
		scribbled[r].Add(n)
	}
	fns := make([]func(net transport.Net) error, n)
	for i := range fns {
		fns[i] = func(net transport.Net) error {
			id := net.ID()
			next := 0 // the first round this party has not scribbled over
			defer func() {
				for ; next < rounds; next++ {
					scribbled[next].Done() // a party that fails must not wedge the others
				}
			}()
			out := make([]transport.Packet, n)
			send := make([]byte, 4*n)
			for r := 0; r < rounds; r++ {
				for to := range out {
					payload := append(send[4*to:4*to:4*to+4], byte(id), byte(r), byte(to), 0x0f)
					out[to] = transport.Packet{To: to, Tag: "r", Payload: payload}
				}
				in, err := net.Exchange(out)
				for k := range out {
					out[k] = transport.Packet{To: k, Tag: "junk", Payload: junk}
				}
				for k := range send {
					send[k] = 0xdd
				}
				if err != nil {
					return fmt.Errorf("party %d round %d: %w", id, r, err)
				}
				scribbled[r].Done()
				next++
				scribbled[r].Wait()
				want := n
				if r < delay {
					want = 1 // only self-delivery has arrived yet
				}
				if len(in) != want {
					return fmt.Errorf("party %d round %d: %d messages, want %d", id, r, len(in), want)
				}
				for _, m := range in {
					stamp := r - delay
					if m.From == id {
						stamp = r
					}
					if !bytes.Equal(m.Payload, []byte{byte(m.From), byte(stamp), byte(id), 0x0f}) {
						return fmt.Errorf("party %d round %d: from %d got %x", id, r, m.From, m.Payload)
					}
				}
			}
			return nil
		}
	}
	run(t, n, 0, fns)
}

// VecExchange is one party's scatter-gather round: a VecNet's own
// ExchangeVec, or Flattened's.
type VecExchange func(out []transport.VecPacket) ([]transport.Message, error)

// Flattened sends net's scatter-gather rounds as a multiplexer over a Net
// without ExchangeVec does: Exchange over the packets of one
// transport.Flat, kept across the rounds.
func Flattened(net transport.Net) VecExchange {
	var flat transport.Flat
	return func(out []transport.VecPacket) ([]transport.Message, error) {
		return net.Exchange(flat.Flatten(out, net.N()))
	}
}

// ConformanceVec runs the scatter-gather contract, each party sending its
// scatter-gather rounds through the VecExchange vec makes of its Net: the
// transport's own ExchangeVec where it has one, and elsewhere Flattened,
// so that what is tested is the refill of the flattener's kept buffers.
// Each round half the parties send multi-piece packets (empty pieces
// mixed in) and the other half the same payloads flat through Exchange,
// alternating by round, and every inbox must come out identical: a
// receiver cannot tell which shape the sender used. Every party also sends an empty payload, two out-of-range packets
// and one transport.All entry, which the flat half sends as the n packets
// it stands for. The pieces are the sender's again once the call returns,
// so a vec sender scribbles over them immediately, and the inbox it then checks
// — self-delivery included — must be unchanged. The check runs inside the
// round that delivered the inbox, the only time a receiver may read it
// (transport.Net); a transport that delivered a peer's pieces by reference
// is a data race between that peer's scribble and this check, which the
// -race runs of every transport's battery report.
func ConformanceVec(t *testing.T, run Cluster, vec func(net transport.Net) VecExchange) {
	const n, rounds = 3, 4
	payload := func(from, r int) []byte {
		return []byte{byte(from), byte(r), 0xaa, 0xbb, byte(from), byte(r)}
	}
	dests := []transport.PartyID{-1, n + 5, 0, 1, 2, transport.All} // two out of range, everyone, everyone again
	fns := make([]func(net transport.Net) error, n)
	for i := range fns {
		fns[i] = func(net transport.Net) error {
			id, send := net.ID(), vec(net)
			for r := 0; r < rounds; r++ {
				w := payload(id, r)
				var in []transport.Message
				var err error
				if (id+r)%2 == 0 {
					pieces := [][]byte{w[:1], nil, w[1:3], {}, w[3:]}
					out := []transport.VecPacket{{To: 0, Tag: "v"}}
					for _, to := range dests {
						out = append(out, transport.VecPacket{To: to, Tag: "v", Vec: pieces})
					}
					in, err = send(out)
					for k := range w {
						w[k] = 0xff
					}
				} else {
					out := []transport.Packet{{To: 0, Tag: "v"}}
					for _, to := range dests {
						if to != transport.All {
							out = append(out, transport.Packet{To: to, Tag: "v", Payload: w})
							continue
						}
						for to := range n {
							out = append(out, transport.Packet{To: to, Tag: "v", Payload: w})
						}
					}
					in, err = net.Exchange(out)
				}
				if err != nil {
					return fmt.Errorf("party %d round %d: %w", id, r, err)
				}
				var want []transport.Message
				for from := 0; from < n; from++ {
					if id == 0 {
						want = append(want, transport.Message{From: from})
					}
					want = append(want, transport.Message{From: from, Payload: payload(from, r)},
						transport.Message{From: from, Payload: payload(from, r)})
				}
				if len(in) != len(want) {
					return fmt.Errorf("party %d round %d: %d messages, want %d", id, r, len(in), len(want))
				}
				for k, m := range in {
					if m.From != want[k].From || !bytes.Equal(m.Payload, want[k].Payload) {
						return fmt.Errorf("party %d round %d message %d: from %d %x, want from %d %x",
							id, r, k, m.From, m.Payload, want[k].From, want[k].Payload)
					}
				}
			}
			return nil
		}
	}
	run(t, n, 0, fns)
}

// FaultCluster runs n party functions over a fresh connected transport
// instance, like Cluster, and additionally hands each party a leave
// control: calling leave() makes that party's transport stop participating
// (close, leave, or crash — whatever the implementation's departure
// mechanism is). Remaining parties' rounds must keep closing.
type FaultCluster func(t *testing.T, n, tc int, fns []func(net transport.Net, leave func()) error)

// ConformanceFaults runs the fault-tolerance battery: transports must
// degrade gracefully — departed peers, silent rounds, and late frames never
// wedge or mis-deliver the remaining parties' rounds.
func ConformanceFaults(t *testing.T, run FaultCluster) {
	t.Run("peer-leaves-mid-protocol", func(t *testing.T) { testPeerLeaves(t, run) })
	t.Run("mixed-empty-rounds", func(t *testing.T) { testMixedEmptyRounds(t, run) })
	t.Run("stale-round-frames", func(t *testing.T) { testStaleRoundFrames(t, run) })
}

// testPeerLeaves: one party departs after two rounds; the survivors' rounds
// keep closing, and no message from the departed peer surfaces in a round
// it never reached.
func testPeerLeaves(t *testing.T, run FaultCluster) {
	const n, rounds, leaveAfter = 4, 6, 2
	fns := make([]func(net transport.Net, leave func()) error, n)
	for i := 0; i < n; i++ {
		id := i
		fns[i] = func(net transport.Net, leave func()) error {
			limit := rounds
			if id == n-1 {
				limit = leaveAfter
			}
			for r := 0; r < limit; r++ {
				in, err := transport.ExchangeAll(net, "f", []byte{byte(id), byte(r)}, nil)
				if err != nil {
					return fmt.Errorf("party %d round %d: %w", id, r, err)
				}
				for _, m := range in {
					if int(m.Payload[1]) != r {
						return fmt.Errorf("party %d round %d: stamped %d", id, r, m.Payload[1])
					}
					if int(m.From) == n-1 && r >= leaveAfter {
						return fmt.Errorf("party %d round %d: message from departed peer", id, r)
					}
				}
				// Survivors must keep hearing each other after the departure.
				if id < n-1 {
					live := 0
					for _, m := range in {
						if int(m.From) < n-1 {
							live++
						}
					}
					if live != n-1 {
						return fmt.Errorf("party %d round %d: %d live messages, want %d", id, r, live, n-1)
					}
				}
			}
			if id == n-1 {
				leave()
			}
			return nil
		}
	}
	run(t, n, 1, fns)
}

// testMixedEmptyRounds: parties that stay silent in a round must not stall
// it, and their silence must be observable as absence, not as empty
// messages.
func testMixedEmptyRounds(t *testing.T, run FaultCluster) {
	const n, rounds = 4, 5
	fns := make([]func(net transport.Net, leave func()) error, n)
	for i := 0; i < n; i++ {
		id := i
		fns[i] = func(net transport.Net, _ func()) error {
			for r := 0; r < rounds; r++ {
				speak := (id+r)%2 == 0 // alternating halves speak
				var in []transport.Message
				var err error
				if speak {
					in, err = transport.ExchangeAll(net, "m", []byte{byte(id)}, nil)
				} else {
					in, err = transport.ExchangeNone(net)
				}
				if err != nil {
					return fmt.Errorf("party %d round %d: %w", id, r, err)
				}
				for _, m := range in {
					if (int(m.From)+r)%2 != 0 {
						return fmt.Errorf("party %d round %d: message from silent party %d", id, r, m.From)
					}
					if len(m.Payload) != 1 || int(m.Payload[0]) != int(m.From) {
						return fmt.Errorf("party %d round %d: bad payload %v", id, r, m.Payload)
					}
				}
			}
			return nil
		}
	}
	run(t, n, 1, fns)
}

// testStaleRoundFrames: a party that stalls past the synchrony bound must
// never cause *cross-round* contamination — every delivered payload belongs
// to the round it is delivered in. (On Δ-timeout transports the stalled
// party's late frames are dropped as stale; on lock-step transports the
// stall just delays the round.)
func testStaleRoundFrames(t *testing.T, run FaultCluster) {
	const n, rounds = 3, 8
	fns := make([]func(net transport.Net, leave func()) error, n)
	for i := 0; i < n; i++ {
		id := i
		fns[i] = func(net transport.Net, _ func()) error {
			for r := 0; r < rounds; r++ {
				if id == n-1 && r == 3 {
					// Stall once, long enough to blow a small Δ.
					time.Sleep(500 * time.Millisecond)
				}
				in, err := transport.ExchangeAll(net, "s", []byte{byte(id), byte(r)}, nil)
				if err != nil {
					return fmt.Errorf("party %d round %d: %w", id, r, err)
				}
				for _, m := range in {
					if int(m.Payload[1]) != r {
						return fmt.Errorf("party %d round %d: received round-%d payload from %d",
							id, r, m.Payload[1], m.From)
					}
				}
			}
			return nil
		}
	}
	run(t, n, 0, fns)
}

// testIdentity: ID/N/T must be consistent and stable.
func testIdentity(t *testing.T, run Cluster) {
	const n, tc = 4, 1
	fns := make([]func(net transport.Net) error, n)
	for i := 0; i < n; i++ {
		want := transport.PartyID(i)
		fns[i] = func(net transport.Net) error {
			if net.ID() != want || net.N() != n || net.T() != tc {
				return fmt.Errorf("identity: id=%d n=%d t=%d", net.ID(), net.N(), net.T())
			}
			return nil
		}
	}
	run(t, n, tc, fns)
}

// testAllToAll: every broadcast arrives exactly once per recipient, sorted
// by authenticated sender.
func testAllToAll(t *testing.T, run Cluster) {
	const n, tc, rounds = 5, 1, 3
	fns := make([]func(net transport.Net) error, n)
	for i := 0; i < n; i++ {
		fns[i] = func(net transport.Net) error {
			var fan []transport.Packet // refilled every round, as a protocol's work set does
			for r := 0; r < rounds; r++ {
				in, err := transport.ExchangeAll(net, "c", []byte{byte(net.ID()), byte(r)}, &fan)
				if err != nil {
					return err
				}
				if len(in) != n {
					return fmt.Errorf("round %d: %d messages, want %d", r, len(in), n)
				}
				for j, m := range in {
					if int(m.From) != j {
						return fmt.Errorf("round %d: message %d from %d (not sorted or duplicated)", r, j, m.From)
					}
					if len(m.Payload) != 2 || int(m.Payload[0]) != j || int(m.Payload[1]) != r {
						return fmt.Errorf("round %d: wrong payload %v from %d", r, m.Payload, j)
					}
				}
			}
			return nil
		}
	}
	run(t, n, tc, fns)
}

// testEmptyRounds: silent rounds still close.
func testEmptyRounds(t *testing.T, run Cluster) {
	const n = 3
	fns := make([]func(net transport.Net) error, n)
	for i := 0; i < n; i++ {
		fns[i] = func(net transport.Net) error {
			for r := 0; r < 4; r++ {
				in, err := transport.ExchangeNone(net)
				if err != nil {
					return err
				}
				if len(in) != 0 {
					return fmt.Errorf("round %d: %d unexpected messages", r, len(in))
				}
			}
			return nil
		}
	}
	run(t, n, 0, fns)
}

// testOrdering: messages sent in round r arrive in round r, never earlier
// or later.
func testOrdering(t *testing.T, run Cluster) {
	const n, rounds = 2, 10
	fns := make([]func(net transport.Net) error, n)
	for i := 0; i < n; i++ {
		fns[i] = func(net transport.Net) error {
			for r := 0; r < rounds; r++ {
				in, err := transport.ExchangeAll(net, "o", []byte{byte(r)}, nil)
				if err != nil {
					return err
				}
				for _, m := range in {
					if int(m.Payload[0]) != r {
						return fmt.Errorf("round %d received round-%d payload", r, m.Payload[0])
					}
				}
			}
			return nil
		}
	}
	run(t, n, 0, fns)
}

// testSelfDelivery: a packet addressed to the sender is delivered locally.
func testSelfDelivery(t *testing.T, run Cluster) {
	const n = 3
	fns := make([]func(net transport.Net) error, n)
	for i := 0; i < n; i++ {
		fns[i] = func(net transport.Net) error {
			out := []transport.Packet{{To: net.ID(), Tag: "s", Payload: []byte{0x55}}}
			in, err := net.Exchange(out)
			if err != nil {
				return err
			}
			if len(in) != 1 || in[0].From != net.ID() || in[0].Payload[0] != 0x55 {
				return fmt.Errorf("self delivery got %v", in)
			}
			return nil
		}
	}
	run(t, n, 0, fns)
}

// testOutOfRange: packets to nonexistent parties — transport.All among
// them — are dropped, not fatal.
func testOutOfRange(t *testing.T, run Cluster) {
	const n = 2
	fns := make([]func(net transport.Net) error, n)
	for i := 0; i < n; i++ {
		fns[i] = func(net transport.Net) error {
			out := []transport.Packet{
				{To: -1, Tag: "x", Payload: []byte{1}},
				{To: transport.PartyID(n + 5), Tag: "x", Payload: []byte{2}},
				// All addresses a VecPacket only: a Net whose Exchange
				// forwarded To unfiltered would make this a broadcast.
				{To: transport.All, Tag: "x", Payload: []byte{3}},
			}
			in, err := net.Exchange(out)
			if err != nil {
				return err
			}
			if len(in) != 0 {
				return fmt.Errorf("out-of-range packets delivered: %v", in)
			}
			return nil
		}
	}
	run(t, n, 0, fns)
}

// testUnicast: point-to-point packets reach only their recipient.
func testUnicast(t *testing.T, run Cluster) {
	const n = 4
	fns := make([]func(net transport.Net) error, n)
	for i := 0; i < n; i++ {
		fns[i] = func(net transport.Net) error {
			// Everyone sends one packet to party (id+1) mod n.
			to := transport.PartyID((int(net.ID()) + 1) % n)
			in, err := net.Exchange([]transport.Packet{{To: to, Tag: "u", Payload: []byte{byte(net.ID())}}})
			if err != nil {
				return err
			}
			wantFrom := transport.PartyID((int(net.ID()) + n - 1) % n)
			if len(in) != 1 || in[0].From != wantFrom || in[0].Payload[0] != byte(wantFrom) {
				return fmt.Errorf("unicast got %v, want from %d", in, wantFrom)
			}
			return nil
		}
	}
	run(t, n, 0, fns)
}
