package adversary_test

import (
	"fmt"
	"math/rand"
	"testing"

	"convexagreement/internal/adversary"
	"convexagreement/internal/hashing"
	"convexagreement/internal/sim"
	"convexagreement/internal/transport"
)

// digestRounds is how long the honest side of a digest run talks.
const digestRounds = 30

// corruptTrafficDigests pins, per strategy and n, the FNV digest of every
// inbox the honest parties of digestRun receive. The protocol goldens pin
// only how much corrupt traffic there is; these pin its bytes, so a rewrite
// of a strategy's bookkeeping must keep every payload it sends, in order.
var corruptTrafficDigests = map[string]uint64{
	"silent/n7":        0xf11db6b61c2f845,
	"silent/n16":       0x62b9ad03036f9cb8,
	"crash-early/n7":   0xf11db6b61c2f845,
	"crash-early/n16":  0x62b9ad03036f9cb8,
	"garbage/n7":       0x3102f4244e4af7f,
	"garbage/n16":      0x7d1c5418e6c03d9e,
	"equivocate/n7":    0x9bd6582c6bf6b798,
	"equivocate/n16":   0x79d3f8aa1b93414,
	"mirror-first/n7":  0xc38af005b9e13620,
	"mirror-first/n16": 0xee9944407a298ad8,
	"mirror-last/n7":   0xa27a38f750d3307,
	"mirror-last/n16":  0x21a48c38a9f16c8f,
	"spam/n7":          0xb5b53243c9ff367e,
	"spam/n16":         0xc7043daba6436d65,
	"replay/n7":        0x25cad3658398c028,
	"replay/n16":       0x63244ea1a8000f9b,
	"late-join/n7":     0xb27142df744c75b1,
	"late-join/n16":    0x7dede95c3c36e650,
	"coalition/n7":     0xb9298cf18a19d04f,
	"coalition/n16":    0x51c0b064dc86fffd,
}

func TestCorruptTrafficDigests(t *testing.T) {
	strategies := adversary.Catalog()
	strategies = append(strategies, adversary.Strategy{Name: "coalition"})
	for _, s := range strategies {
		for _, n := range []int{7, 16} {
			name := fmt.Sprintf("%s/n%d", s.Name, n)
			build := s.Build
			if build == nil {
				c := adversary.NewCoalition()
				build = func(int64) sim.Behavior { return c.Member() }
			}
			if got, want := digestRun(t, n, build), corruptTrafficDigests[name]; got != want {
				t.Errorf("%s: digest %#x, want %#x", name, got, want)
			}
		}
	}
}

// digestRun runs t = ⌊(n−1)/3⌋ copies of a strategy against honest parties
// that send a seeded mix of round shapes — a broadcast, one payload per
// recipient, one payload slice to a subset, per-recipient payloads in
// descending order — of seeded lengths, empty ones included. It returns
// the digest of every honest inbox, (round, sender, payload) per message,
// folded in party order.
func digestRun(t *testing.T, n int, build func(seed int64) sim.Behavior) uint64 {
	t.Helper()
	tc := (n - 1) / 3
	parties := make([]sim.Party, n)
	digests := make([]uint64, n)
	corrupt := rand.New(rand.NewSource(int64(n))).Perm(n)[:tc]
	for i := range parties {
		id := i
		parties[i] = sim.Party{Behavior: func(env *sim.Env) error {
			rng := rand.New(rand.NewSource(int64(1000*n + id)))
			d := uint64(hashing.FNVOffset)
			var fan []transport.Packet
			for r := 0; r < digestRounds; r++ {
				payload := func() []byte {
					p := make([]byte, rng.Intn(40))
					rng.Read(p)
					return p
				}
				var in []transport.Message
				var err error
				switch rng.Intn(4) {
				case 0:
					in, err = transport.ExchangeAll(env, "h", payload(), &fan)
				case 1:
					var out []transport.Packet
					for to := 0; to < n; to++ {
						out = append(out, transport.Packet{To: to, Tag: "h", Payload: payload()})
					}
					in, err = env.Exchange(out)
				case 2:
					shared := payload()
					var out []transport.Packet
					for to := 0; to < n; to++ {
						if rng.Intn(2) == 0 {
							out = append(out, transport.Packet{To: to, Tag: "h", Payload: shared})
						}
					}
					in, err = env.Exchange(out)
				default:
					var out []transport.Packet
					for to := n - 1; to >= 0; to-- {
						out = append(out, transport.Packet{To: to, Tag: "h", Payload: payload()})
					}
					in, err = env.Exchange(out)
				}
				if err != nil {
					return err
				}
				for _, m := range in {
					d = hashing.FNVWord(d, uint64(r))
					d = hashing.FNVWord(d, uint64(m.From))
					d = hashing.FNVWord(d, uint64(len(m.Payload)))
					d = hashing.FNVBytes(d, m.Payload)
				}
			}
			digests[id] = d
			return nil
		}}
	}
	for _, id := range corrupt {
		parties[id] = sim.Party{Corrupt: true, Behavior: build(int64(100*n + id))}
	}
	if _, err := sim.Run(sim.Config{N: n, T: tc}, parties); err != nil {
		t.Fatal(err)
	}
	d := uint64(hashing.FNVOffset)
	for _, pd := range digests {
		d = hashing.FNVWord(d, pd)
	}
	return d
}
