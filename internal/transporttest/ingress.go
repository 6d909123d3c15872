package transporttest

import (
	"fmt"
	"testing"

	"convexagreement/internal/transport"
)

// ConformanceIngress runs the ingress-robustness battery: one party floods
// the others at the packet level while everyone else runs a normal
// exchange loop. A conforming transport may deliver, shed, or demote the
// flood — the battery is deliberately agnostic about the flooder's fate —
// but honest traffic must survive it untouched: every honest party keeps
// hearing every honest party exactly once per round, round-stamped
// correctly, and the flood must never leak across round boundaries.
func ConformanceIngress(t *testing.T, run FaultCluster) {
	t.Run("flood-packets", func(t *testing.T) { testFloodPackets(t, run) })
	t.Run("flood-bytes", func(t *testing.T) { testFloodBytes(t, run) })
	t.Run("flood-then-silent", func(t *testing.T) { testFloodThenSilent(t, run) })
}

// checkHonest asserts the invariant every ingress scenario shares: in
// round r, each honest sender (id < flooder) is heard exactly once with an
// exact {id, r} payload, and every message — flood included — carries the
// current round's stamp.
func checkHonest(id, r, flooder int, in []transport.Message) error {
	heard := make([]int, flooder)
	for _, m := range in {
		if len(m.Payload) < 2 {
			return fmt.Errorf("party %d round %d: truncated payload from %d", id, r, m.From)
		}
		if int(m.Payload[1]) != r {
			return fmt.Errorf("party %d round %d: round-%d payload from %d leaked in", id, r, m.Payload[1], m.From)
		}
		if int(m.From) < flooder {
			if int(m.Payload[0]) != int(m.From) {
				return fmt.Errorf("party %d round %d: corrupted honest payload %v from %d", id, r, m.Payload, m.From)
			}
			heard[m.From]++
		}
	}
	for j, c := range heard {
		if c != 1 {
			return fmt.Errorf("party %d round %d: heard honest party %d %d times, want exactly once", id, r, j, c)
		}
	}
	return nil
}

// testFloodPackets: the flooder duplicates one small packet a few hundred
// times to every party, every round. Packet-count pressure must not
// displace or duplicate honest messages.
func testFloodPackets(t *testing.T, run FaultCluster) {
	const n, rounds, copies = 4, 5, 256
	flooder := n - 1
	fns := make([]func(net transport.Net, leave func()) error, n)
	for i := 0; i < n; i++ {
		id := i
		fns[i] = func(net transport.Net, _ func()) error {
			for r := 0; r < rounds; r++ {
				if id == flooder {
					out := make([]transport.Packet, 0, copies*n)
					for to := 0; to < n; to++ {
						for c := 0; c < copies; c++ {
							out = append(out, transport.Packet{
								To: transport.PartyID(to), Tag: "fp",
								Payload: []byte{byte(id), byte(r)},
							})
						}
					}
					if _, err := net.Exchange(out); err != nil {
						return fmt.Errorf("flooder round %d: %w", r, err)
					}
					continue
				}
				in, err := transport.ExchangeAll(net, "fp", []byte{byte(id), byte(r)}, nil)
				if err != nil {
					return fmt.Errorf("party %d round %d: %w", id, r, err)
				}
				if err := checkHonest(id, r, flooder, in); err != nil {
					return err
				}
			}
			return nil
		}
	}
	run(t, n, 1, fns)
}

// testFloodBytes: the flooder ships one 64 KiB payload to every party,
// every round. Byte-volume pressure must not corrupt, truncate, or delay
// honest messages past their round.
func testFloodBytes(t *testing.T, run FaultCluster) {
	const n, rounds, size = 4, 5, 64 << 10
	flooder := n - 1
	fns := make([]func(net transport.Net, leave func()) error, n)
	for i := 0; i < n; i++ {
		id := i
		fns[i] = func(net transport.Net, _ func()) error {
			for r := 0; r < rounds; r++ {
				if id == flooder {
					big := make([]byte, size)
					big[0], big[1] = byte(id), byte(r)
					if _, err := transport.ExchangeAll(net, "fb", big, nil); err != nil {
						return fmt.Errorf("flooder round %d: %w", r, err)
					}
					continue
				}
				in, err := transport.ExchangeAll(net, "fb", []byte{byte(id), byte(r)}, nil)
				if err != nil {
					return fmt.Errorf("party %d round %d: %w", id, r, err)
				}
				if err := checkHonest(id, r, flooder, in); err != nil {
					return err
				}
				for _, m := range in {
					if int(m.From) == flooder && len(m.Payload) != size {
						return fmt.Errorf("party %d round %d: flood payload truncated to %d bytes", id, r, len(m.Payload))
					}
				}
			}
			return nil
		}
	}
	run(t, n, 1, fns)
}

// testFloodThenSilent: two rounds of packet flood, then the flooder goes
// quiet. Nothing the flood managed to enqueue may surface in the silent
// rounds — buffered flood frames must die with the flood, not drip into
// later rounds.
func testFloodThenSilent(t *testing.T, run FaultCluster) {
	const n, rounds, floodRounds, copies = 4, 6, 2, 256
	flooder := n - 1
	fns := make([]func(net transport.Net, leave func()) error, n)
	for i := 0; i < n; i++ {
		id := i
		fns[i] = func(net transport.Net, _ func()) error {
			for r := 0; r < rounds; r++ {
				if id == flooder {
					var err error
					if r < floodRounds {
						out := make([]transport.Packet, 0, copies*n)
						for to := 0; to < n; to++ {
							for c := 0; c < copies; c++ {
								out = append(out, transport.Packet{
									To: transport.PartyID(to), Tag: "fs",
									Payload: []byte{byte(id), byte(r)},
								})
							}
						}
						_, err = net.Exchange(out)
					} else {
						_, err = transport.ExchangeNone(net)
					}
					if err != nil {
						return fmt.Errorf("flooder round %d: %w", r, err)
					}
					continue
				}
				in, err := transport.ExchangeAll(net, "fs", []byte{byte(id), byte(r)}, nil)
				if err != nil {
					return fmt.Errorf("party %d round %d: %w", id, r, err)
				}
				if err := checkHonest(id, r, flooder, in); err != nil {
					return err
				}
				if r >= floodRounds {
					for _, m := range in {
						if int(m.From) == flooder {
							return fmt.Errorf("party %d round %d: flood residue after the flooder went silent", id, r)
						}
					}
				}
			}
			return nil
		}
	}
	run(t, n, 1, fns)
}
