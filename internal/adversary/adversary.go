// Package adversary provides a library of byzantine strategies for the
// simulated network (package sim).
//
// The paper's adversary model (§2) allows corrupted parties to deviate
// arbitrarily and to *rush*: observe the honest messages of a round before
// choosing their own. Strategies here are protocol-agnostic network-level
// attacks; protocol-aware attacks (e.g. running the honest protocol with
// extreme inputs, the canonical attack on convex validity) are composed at
// the protocol layer, where the protocol code is in scope.
//
// Every strategy here loops until the simulation ends and returns
// sim.ErrSimOver, which the scheduler treats as a clean corrupt exit. The
// resource-exhaustion strategies (active.go) never read the network, so
// they are per-round packet builders (Attack) that any host can loop over:
// the simulator, or a corrupt party of a deployed cluster.
package adversary

import (
	"math/rand"
	"sort"

	"convexagreement/internal/sim"
	"convexagreement/internal/transport"
)

// tag labels adversarial traffic in cost reports.
const tag = "adv"

// Silent crashes the party immediately: it never sends anything. This is
// the weakest adversary; protocols must tolerate it as pure omission.
func Silent() sim.Behavior {
	return func(env *sim.Env) error {
		for {
			if _, err := transport.ExchangeNone(env); err != nil {
				return err
			}
		}
	}
}

// Crash participates silently for `rounds` rounds and then stops entirely.
func Crash(rounds int) sim.Behavior {
	return func(env *sim.Env) error {
		for r := 0; r < rounds; r++ {
			if _, err := transport.ExchangeNone(env); err != nil {
				return err
			}
		}
		return nil
	}
}

// Garbage floods every party each round with random bytes of random length
// up to maxLen. It exercises every decode path: honest parties must treat
// undecodable payloads as absent, never crash.
func Garbage(seed int64, maxLen int) sim.Behavior {
	return func(env *sim.Env) error {
		rng := rand.New(rand.NewSource(seed + int64(env.ID())))
		for {
			out := make([]sim.Packet, 0, env.N())
			for to := 0; to < env.N(); to++ {
				buf := make([]byte, rng.Intn(maxLen+1))
				rng.Read(buf)
				out = append(out, sim.Packet{To: sim.PartyID(to), Tag: tag, Payload: buf})
			}
			if _, err := env.Exchange(out); err != nil {
				return err
			}
		}
	}
}

// Equivocate rushes each round, then relays one honest party's payload to
// half the parties and a different honest party's payload to the other
// half. Against voting protocols this is the classic split-the-vote attack;
// the rushed payloads are always well-formed for the current round, so it
// attacks logic rather than parsers.
func Equivocate(seed int64) sim.Behavior {
	return func(env *sim.Env) error {
		rng := rand.New(rand.NewSource(seed * 31))
		for {
			spied, err := env.PeekHonest()
			if err != nil {
				return err
			}
			// Collect one representative payload per honest sender.
			var senders []sim.PartyID
			byFrom := make(map[sim.PartyID][]byte)
			for _, s := range spied {
				if _, ok := byFrom[s.From]; !ok {
					byFrom[s.From] = s.Payload
					senders = append(senders, s.From)
				}
			}
			var out []sim.Packet
			if len(senders) > 0 {
				a := byFrom[senders[0]]
				b := byFrom[senders[len(senders)-1]]
				if len(senders) > 2 && rng.Intn(2) == 1 {
					a = byFrom[senders[1]]
				}
				for to := 0; to < env.N(); to++ {
					payload := a
					if to%2 == 1 {
						payload = b
					}
					out = append(out, sim.Packet{To: sim.PartyID(to), Tag: tag, Payload: payload})
				}
			}
			if _, err := env.Exchange(out); err != nil {
				return err
			}
		}
	}
}

// Mirror rushes each round and sends to every party the payload that some
// honest party addressed *to that same recipient*, making the corrupt party
// look plausibly honest while adding weight to whichever side the adversary
// indexes first. With chooseLast it relays the lexicographically last
// matching payload instead of the first, which tends to amplify minority
// values.
func Mirror(chooseLast bool) sim.Behavior {
	return func(env *sim.Env) error {
		for {
			spied, err := env.PeekHonest()
			if err != nil {
				return err
			}
			byTo := make(map[sim.PartyID][]byte)
			for _, s := range spied {
				cur, ok := byTo[s.To]
				if !ok || (chooseLast && string(s.Payload) > string(cur)) {
					byTo[s.To] = s.Payload
				}
			}
			out := make([]sim.Packet, 0, len(byTo))
			for _, to := range sortedRecipients(byTo) {
				out = append(out, sim.Packet{To: to, Tag: tag, Payload: byTo[to]})
			}
			if _, err := env.Exchange(out); err != nil {
				return err
			}
		}
	}
}

// Spam sends `copies` duplicate well-formed-looking messages to every party
// each round, mixing replayed honest payloads with mutations of them. It
// stresses per-sender deduplication and witness verification.
func Spam(seed int64, copies int) sim.Behavior {
	return func(env *sim.Env) error {
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		for {
			spied, err := env.PeekHonest()
			if err != nil {
				return err
			}
			var out []sim.Packet
			for to := 0; to < env.N(); to++ {
				for c := 0; c < copies; c++ {
					var payload []byte
					if len(spied) > 0 {
						src := spied[rng.Intn(len(spied))].Payload
						payload = make([]byte, len(src))
						copy(payload, src)
						if len(payload) > 0 && c%2 == 1 {
							payload[rng.Intn(len(payload))] ^= 0xff // mutate
						}
					}
					out = append(out, sim.Packet{To: sim.PartyID(to), Tag: tag, Payload: payload})
				}
			}
			if _, err := env.Exchange(out); err != nil {
				return err
			}
		}
	}
}

// Replay rushes each round, records every honest payload it sees, and sends
// parties payloads replayed verbatim from *earlier* rounds. The messages are
// perfectly well-formed for the round they were stolen from, so this attacks
// round-binding: a protocol that does not tie payloads to the round that
// produced them will double-count stale evidence.
func Replay(seed int64) sim.Behavior {
	return func(env *sim.Env) error {
		rng := rand.New(rand.NewSource(seed ^ 0x9e3779b9))
		var history [][]byte
		for {
			spied, err := env.PeekHonest()
			if err != nil {
				return err
			}
			var out []sim.Packet
			if len(history) > 0 {
				for to := 0; to < env.N(); to++ {
					out = append(out, sim.Packet{
						To:      sim.PartyID(to),
						Tag:     tag,
						Payload: history[rng.Intn(len(history))],
					})
				}
			}
			for _, s := range spied {
				history = append(history, s.Payload)
			}
			if _, err := env.Exchange(out); err != nil {
				return err
			}
		}
	}
}

// LateJoin stays dark for `rounds` rounds — indistinguishable from a crash —
// and then starts participating by mirroring current honest traffic. It
// models a partitioned or restarted party rejoining mid-protocol: honest
// code must neither have written it off permanently nor let its sudden
// reappearance inject weight into decisions already underway.
func LateJoin(rounds int) sim.Behavior {
	return func(env *sim.Env) error {
		for r := 0; r < rounds; r++ {
			if _, err := transport.ExchangeNone(env); err != nil {
				return err
			}
		}
		for {
			spied, err := env.PeekHonest()
			if err != nil {
				return err
			}
			byTo := make(map[sim.PartyID][]byte)
			for _, s := range spied {
				if _, ok := byTo[s.To]; !ok {
					byTo[s.To] = s.Payload
				}
			}
			out := make([]sim.Packet, 0, len(byTo))
			for _, to := range sortedRecipients(byTo) {
				out = append(out, sim.Packet{To: to, Tag: tag, Payload: byTo[to]})
			}
			if _, err := env.Exchange(out); err != nil {
				return err
			}
		}
	}
}

// sortedRecipients returns byTo's keys in ascending order. Packet
// submission order must not depend on map iteration: under a
// fault-injection transport the per-packet seeded drop/corrupt decisions
// and the transcript digest consume packets in stream order, so a
// map-ordered fan-out would make identically-seeded runs diverge
// (calint's maporder check gates on exactly this shape).
func sortedRecipients(byTo map[sim.PartyID][]byte) []sim.PartyID {
	tos := make([]sim.PartyID, 0, len(byTo))
	for to := range byTo {
		tos = append(tos, to)
	}
	sort.Slice(tos, func(i, j int) bool { return tos[i] < tos[j] })
	return tos
}

// Strategy names a reusable adversary constructor for parameter sweeps.
type Strategy struct {
	Name  string
	Build func(seed int64) sim.Behavior
}

// Catalog returns the standard strategy sweep used by tests and the E10
// experiment.
func Catalog() []Strategy {
	return []Strategy{
		{Name: "silent", Build: func(int64) sim.Behavior { return Silent() }},
		{Name: "crash-early", Build: func(int64) sim.Behavior { return Crash(3) }},
		{Name: "garbage", Build: func(seed int64) sim.Behavior { return Garbage(seed, 96) }},
		{Name: "equivocate", Build: func(seed int64) sim.Behavior { return Equivocate(seed) }},
		{Name: "mirror-first", Build: func(int64) sim.Behavior { return Mirror(false) }},
		{Name: "mirror-last", Build: func(int64) sim.Behavior { return Mirror(true) }},
		{Name: "spam", Build: func(seed int64) sim.Behavior { return Spam(seed, 3) }},
		{Name: "replay", Build: func(seed int64) sim.Behavior { return Replay(seed) }},
		{Name: "late-join", Build: func(int64) sim.Behavior { return LateJoin(3) }},
	}
}
