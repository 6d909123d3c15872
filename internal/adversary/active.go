package adversary

import (
	"math/rand"

	"convexagreement/internal/transport"
)

// Active resource-exhaustion strategies. Where the classic Catalog attacks
// protocol *logic* (equivocation, replay, mirroring), these attack the
// transport's *resources*: packet counts, byte volume, and burstiness. None
// of them ever looks at the network, so each is reduced to what it sends.

// Attack is one resource-exhaustion adversary as its per-round packet
// builder: the host calls it once per round, in round order, with the
// cluster size, exchanges what it returns over whatever transport.Net the
// corrupt party holds, and decides when to stop (the simulator ends the
// run; the deployed-cluster harness stands its attacker down once the
// honest parties are done). An Attack is deterministic in its seed and
// never rewrites a payload it has handed out: in-process transports
// deliver by reference, and a recipient may still be reading last round's
// bytes while the next round is being built.
type Attack func(round, n int) []transport.Packet

// Flood sends copies identical well-formed packets of payloadLen seeded
// bytes to every party, every round — pure packet-count pressure. Honest
// parties must dedup or shed it without losing each other's traffic.
func Flood(seed int64, copies, payloadLen int) Attack {
	rng := rand.New(rand.NewSource(seed))
	return func(_, n int) []transport.Packet {
		payload := make([]byte, payloadLen)
		rng.Read(payload)
		out := make([]transport.Packet, 0, copies*n)
		for to := 0; to < n; to++ {
			for c := 0; c < copies; c++ {
				out = append(out, transport.Packet{To: to, Tag: tag, Payload: payload})
			}
		}
		return out
	}
}

// Oversize sends every party one giant seeded payload of size bytes per
// round — byte-volume pressure. Decoders must refuse or absorb it by its
// size alone, never by crashing, and honest traffic must not be displaced.
func Oversize(seed int64, size int) Attack {
	rng := rand.New(rand.NewSource(seed))
	return func(_, n int) []transport.Packet {
		big := make([]byte, size)
		rng.Read(big)
		out := make([]transport.Packet, 0, n)
		for to := 0; to < n; to++ {
			out = append(out, transport.Packet{To: to, Tag: tag, Payload: big})
		}
		return out
	}
}

// Burst stays silent for period-1 rounds, then fires a copies-deep garbage
// flood in one round, and repeats. It probes rate limiters that average
// over time: a bucket sized only for the mean admits the burst, one sized
// only for the burst starves steady traffic.
func Burst(seed int64, period, copies int) Attack {
	if period < 1 {
		period = 1
	}
	rng := rand.New(rand.NewSource(seed))
	return func(round, n int) []transport.Packet {
		if round%period != period-1 {
			return nil
		}
		out := make([]transport.Packet, 0, copies*n)
		for to := 0; to < n; to++ {
			for c := 0; c < copies; c++ {
				buf := make([]byte, rng.Intn(64)+1)
				rng.Read(buf)
				out = append(out, transport.Packet{To: to, Tag: tag, Payload: buf})
			}
		}
		return out
	}
}

// ActiveStrategy names a reusable Attack constructor, as Strategy does for
// the simulator's behaviors.
type ActiveStrategy struct {
	Name  string
	Build func(seed int64) Attack
}

// ActiveCatalog is the resource-exhaustion sweep: the scenarios of the E19
// ingress experiment, at E19's sizes. Kept separate from Catalog so the
// classic sweep's golden transcripts stay stable.
func ActiveCatalog() []ActiveStrategy {
	return []ActiveStrategy{
		{Name: "flood", Build: func(seed int64) Attack { return Flood(seed, 12, 24) }},
		{Name: "oversize", Build: func(seed int64) Attack { return Oversize(seed, 32<<10) }},
		{Name: "garbage-burst", Build: func(seed int64) Attack { return Burst(seed, 3, 48) }},
	}
}
