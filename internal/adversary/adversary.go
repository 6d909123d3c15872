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
	"bytes"
	"cmp"
	"math/rand"
	"slices"

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
		var out []sim.Packet
		var bufs [2][]byte
		for round := 0; ; round++ {
			buf := bufs[round%2][:0]
			out = out[:0]
			for to := 0; to < env.N(); to++ {
				payload := carve(&buf, rng.Intn(maxLen+1))
				rng.Read(payload)
				out = append(out, sim.Packet{To: sim.PartyID(to), Tag: tag, Payload: payload})
			}
			bufs[round%2] = buf
			if _, err := env.Exchange(out); err != nil {
				return err
			}
		}
	}
}

// carve extends *buf by size bytes and returns them, capped so that an
// append through one payload cannot reach the next. A strategy that writes
// its payloads carves them from two buffers taken in turn, round by round:
// the simulator delivers by reference, and a recipient reads round r's
// payloads until it submits round r+1, which every party has done by the
// time round r+1 closes and this party starts building round r+2. So a
// buffer is free again two rounds after it was sent; a grown buffer leaves
// its old array, which recipients may still be reading, untouched.
func carve(buf *[]byte, size int) []byte {
	off := len(*buf)
	*buf = slices.Grow(*buf, size)[:off+size]
	return (*buf)[off : off+size : off+size]
}

// Equivocate rushes each round, then relays one honest party's payload to
// half the parties and a different honest party's payload to the other
// half. Against voting protocols this is the classic split-the-vote attack;
// the rushed payloads are always well-formed for the current round, so it
// attacks logic rather than parsers.
func Equivocate(seed int64) sim.Behavior {
	return func(env *sim.Env) error {
		rng := rand.New(rand.NewSource(seed * 31))
		seen := make([]bool, env.N())
		var first [][]byte
		var out []sim.Packet
		for {
			spied, err := env.PeekHonest()
			if err != nil {
				return err
			}
			// Collect one representative payload per honest sender, in
			// order of first appearance.
			clear(seen)
			first = first[:0]
			for _, s := range spied {
				if !seen[s.From] {
					seen[s.From] = true
					first = append(first, s.Payload)
				}
			}
			out = out[:0]
			if len(first) > 0 {
				a, b := first[0], first[len(first)-1]
				if len(first) > 2 && rng.Intn(2) == 1 {
					a = first[1]
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
	return func(env *sim.Env) error { return mirror(env, chooseLast) }
}

// mirror is Mirror's round loop, and LateJoin's once it has joined. The
// packets go out in ascending recipient order: under a fault-injection
// transport the per-packet seeded decisions and the transcript digest
// consume packets in stream order.
func mirror(env *sim.Env, chooseLast bool) error {
	byTo := make([][]byte, env.N())
	has := make([]bool, env.N())
	var out []sim.Packet
	for {
		spied, err := env.PeekHonest()
		if err != nil {
			return err
		}
		clear(has)
		for _, s := range spied {
			if !has[s.To] || (chooseLast && bytes.Compare(s.Payload, byTo[s.To]) > 0) {
				byTo[s.To], has[s.To] = s.Payload, true
			}
		}
		out = out[:0]
		for to, ok := range has {
			if ok {
				out = append(out, sim.Packet{To: to, Tag: tag, Payload: byTo[to]})
			}
		}
		if _, err := env.Exchange(out); err != nil {
			return err
		}
	}
}

// Spam sends `copies` duplicate well-formed-looking messages to every party
// each round, mixing replayed honest payloads with mutations of them. It
// stresses per-sender deduplication and witness verification.
func Spam(seed int64, copies int) sim.Behavior {
	return func(env *sim.Env) error {
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		var out []sim.Packet
		var bufs [2][]byte
		for round := 0; ; round++ {
			spied, err := env.PeekHonest()
			if err != nil {
				return err
			}
			buf := bufs[round%2][:0]
			out = out[:0]
			for to := 0; to < env.N(); to++ {
				for c := 0; c < copies; c++ {
					var payload []byte
					if len(spied) > 0 {
						src := spied[rng.Intn(len(spied))].Payload
						payload = carve(&buf, len(src))
						copy(payload, src)
						if len(payload) > 0 && c%2 == 1 {
							payload[rng.Intn(len(payload))] ^= 0xff // mutate
						}
					}
					out = append(out, sim.Packet{To: sim.PartyID(to), Tag: tag, Payload: payload})
				}
			}
			bufs[round%2] = buf
			if _, err := env.Exchange(out); err != nil {
				return err
			}
		}
	}
}

// replayRun is a run of consecutive entries of Replay's history that share
// one payload slice — a broadcast's n entries — and the number of entries
// up to and including the run.
type replayRun struct {
	payload []byte
	end     int
}

// Replay rushes each round, records every honest payload it sees, and sends
// parties payloads replayed verbatim from *earlier* rounds. The messages are
// perfectly well-formed for the round they were stolen from, so this attacks
// round-binding: a protocol that does not tie payloads to the round that
// produced them will double-count stale evidence.
//
// The history is every peeked entry, one per packet, each as likely as the
// next; it is kept as runs, so a broadcast costs one record, and an entry
// is drawn by its index and found by binary search over the runs' ends.
// The snapshot's payload copies are never rewritten, so they are kept as
// they are.
func Replay(seed int64) sim.Behavior {
	return func(env *sim.Env) error {
		rng := rand.New(rand.NewSource(seed ^ 0x9e3779b9))
		var history []replayRun
		entries := 0
		var out []sim.Packet
		for {
			spied, err := env.PeekHonest()
			if err != nil {
				return err
			}
			out = out[:0]
			if entries > 0 {
				for to := 0; to < env.N(); to++ {
					k := rng.Intn(entries)
					i, _ := slices.BinarySearchFunc(history, k+1, func(r replayRun, end int) int { return cmp.Compare(r.end, end) })
					out = append(out, sim.Packet{To: sim.PartyID(to), Tag: tag, Payload: history[i].payload})
				}
			}
			for _, s := range spied {
				entries++
				if last := len(history) - 1; last >= 0 && transport.SamePayload(history[last].payload, s.Payload) {
					history[last].end = entries
				} else {
					history = append(history, replayRun{payload: s.Payload, end: entries})
				}
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
		return mirror(env, false)
	}
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
