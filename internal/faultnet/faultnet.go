// Package faultnet is a deterministic fault-injection middleware for the
// synchronous transport abstraction: it wraps any transport.Net and injects
// network failures — message drops, delays past Δ, duplication, byte
// corruption, scheduled partitions, and crash/restart windows — according
// to a seed-keyed FaultPlan, so that runs replay exactly and conformance
// tests can assert protocol outcomes under named fault scenarios.
//
// The paper's model (§2) folds every infrastructure failure into the
// byzantine adversary's power: a dropped message is an omission by a
// corrupted sender, a delay past Δ slides the message into a later round,
// a crashed party is corrupt-and-silent. faultnet realizes exactly those
// semantics on top of a *fault-free* transport, giving the repository a
// network-fault axis orthogonal to the byzantine strategy catalog in
// internal/adversary: a protocol run can face byzantine parties (simulated
// or real) *and* a faulty network at once, and every party touched by an
// injected fault counts against the corruption budget t.
//
// Composition: every party wraps its own Net handle with the same *Plan.
// Each sender-side fault (drop, delay, duplicate, corrupt, partition) is
// applied exactly once, by the sending party's wrapper; crash windows
// additionally discard the crashed party's inbox at its own wrapper. Fault
// decisions are pure functions of (seed, round, link, rule, message index),
// so two runs with identical plans and deterministic protocols produce
// byte-identical traffic — Transcript exposes a digest for asserting this.
//
// With an empty plan the wrapper is a byte-identical passthrough: Exchange
// forwards the caller's packet slice untouched.
package faultnet

import (
	"errors"
	"fmt"

	"convexagreement/internal/hashing"
	"convexagreement/internal/transport"
)

// Kind enumerates the injectable link faults.
type Kind uint8

const (
	// Drop omits the message entirely (omission past Δ).
	Drop Kind = iota
	// Delay slides the message DelayRounds rounds later: the recipient sees
	// it as part of a later round's traffic, exactly the synchronous
	// model's semantics for a message delayed beyond Δ.
	Delay
	// Duplicate delivers the message twice in the same round.
	Duplicate
	// Corrupt flips bytes of the payload (a copy; the caller's buffer is
	// never written).
	Corrupt
)

// String names the kind for tables and test output.
func (k Kind) String() string {
	switch k {
	case Drop:
		return "drop"
	case Delay:
		return "delay"
	case Duplicate:
		return "duplicate"
	case Corrupt:
		return "corrupt"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Any matches every party in a Rule's From/To position.
const Any = -1

// Rule injects one fault kind on matching (sender → recipient) links during
// the round window [FromRound, ToRound). ToRound ≤ 0 means unbounded. Each
// matching message is hit independently with probability Prob, decided by a
// deterministic hash of (seed, round, link, rule, message index).
type Rule struct {
	Kind        Kind
	From, To    int // party index or Any
	FromRound   int
	ToRound     int
	Prob        float64
	DelayRounds int // Delay only; 0 means 1
}

// Partition cuts every link crossing the GroupA / rest boundary, both
// directions, during [FromRound, ToRound) — a clean network split that
// heals when the window ends.
type Partition struct {
	FromRound int
	ToRound   int
	GroupA    []int
}

// Crash silences party Party for rounds [FromRound, ToRound): it sends
// nothing and receives nothing, then resumes (restart). The party's
// wrapper keeps participating in the round schedule so lock-step rounds
// still close.
type Crash struct {
	Party     int
	FromRound int
	ToRound   int
}

// Kill hard-fails party Party's Exchange at the start of round Round with
// ErrKilled — a process crash, as opposed to Crash's silence window. The
// party's wrapper stops participating entirely; recovery means the caller
// restarts the party (typically from a checkpoint) and re-wraps its
// transport with WrapAt at the resume round, which marks the fired kill
// consumed. Each Kill fires at most once per wrapper.
type Kill struct {
	Party int
	Round int
}

// Plan is a per-round, per-link fault schedule. The zero value injects
// nothing. Plans are read-only once in use and may be shared by all
// parties' wrappers.
type Plan struct {
	// Seed keys every probabilistic decision; identical seeds replay
	// identical faults.
	Seed       int64
	Rules      []Rule
	Partitions []Partition
	Crashes    []Crash
	Kills      []Kill
	// MaxRounds, when positive, makes Exchange fail with ErrRoundLimit
	// after that many rounds — a liveness cutoff so a protocol starved by
	// faults surfaces as an error instead of a hang.
	MaxRounds int
}

// Validate rejects plans that would silently misbehave: rules with
// probabilities outside [0, 1], inverted or negative round windows,
// negative delays, party indices below Any, and a negative MaxRounds (zero
// means unlimited; negative is always a mistake).
func (p Plan) Validate() error {
	if p.MaxRounds < 0 {
		return fmt.Errorf("faultnet: MaxRounds %d is negative (0 means unlimited)", p.MaxRounds)
	}
	for i, r := range p.Rules {
		switch {
		case r.Prob < 0 || r.Prob > 1:
			return fmt.Errorf("faultnet: rule %d Prob %v outside [0, 1]", i, r.Prob)
		case r.From < Any || r.To < Any:
			return fmt.Errorf("faultnet: rule %d party index below Any", i)
		case r.FromRound < 0:
			return fmt.Errorf("faultnet: rule %d FromRound %d is negative", i, r.FromRound)
		case r.ToRound > 0 && r.ToRound <= r.FromRound:
			return fmt.Errorf("faultnet: rule %d window [%d, %d) is empty", i, r.FromRound, r.ToRound)
		case r.DelayRounds < 0:
			return fmt.Errorf("faultnet: rule %d DelayRounds %d is negative", i, r.DelayRounds)
		case r.Kind > Corrupt:
			return fmt.Errorf("faultnet: rule %d unknown fault kind %d", i, r.Kind)
		}
	}
	for i, pt := range p.Partitions {
		if pt.FromRound < 0 {
			return fmt.Errorf("faultnet: partition %d FromRound %d is negative", i, pt.FromRound)
		}
		if pt.ToRound > 0 && pt.ToRound <= pt.FromRound {
			return fmt.Errorf("faultnet: partition %d window [%d, %d) is empty", i, pt.FromRound, pt.ToRound)
		}
	}
	for i, cr := range p.Crashes {
		switch {
		case cr.Party < 0:
			return fmt.Errorf("faultnet: crash %d party %d is negative", i, cr.Party)
		case cr.FromRound < 0:
			return fmt.Errorf("faultnet: crash %d FromRound %d is negative", i, cr.FromRound)
		case cr.ToRound > 0 && cr.ToRound <= cr.FromRound:
			return fmt.Errorf("faultnet: crash %d window [%d, %d) is empty", i, cr.FromRound, cr.ToRound)
		}
	}
	for i, k := range p.Kills {
		if k.Party < 0 || k.Round < 0 {
			return fmt.Errorf("faultnet: kill %d has negative party or round", i)
		}
	}
	return nil
}

// ErrRoundLimit reports that a wrapped party exceeded Plan.MaxRounds.
var ErrRoundLimit = errors.New("faultnet: round limit exceeded")

// ErrKilled reports that a scheduled Kill fired at this party.
var ErrKilled = errors.New("faultnet: party killed by plan")

// Net wraps one party's transport handle with the plan's faults. It
// implements transport.Net. Not safe for concurrent use, matching the
// one-goroutine-per-Net contract of the underlying transports.
type Net struct {
	inner transport.Net
	plan  *Plan
	self  int
	round int
	// held buffers delayed outgoing packets keyed by the absolute round in
	// which they are to be (re)sent.
	held map[int][]transport.Packet
	// digest is a running FNV-1a over everything this party received, for
	// replay-determinism assertions.
	digest uint64
	// killsFired marks plan Kills already consumed by this wrapper (by
	// index into plan.Kills) so each fires at most once.
	killsFired []bool
}

var _ transport.Net = (*Net)(nil)

// Wrap layers plan over inner. A nil plan is treated as the empty plan.
func Wrap(inner transport.Net, plan *Plan) *Net {
	return WrapAt(inner, plan, 0)
}

// WrapAt is Wrap for a restarted party: the wrapper's round counter starts
// at startRound (the party's checkpointed resume round), and every Kill
// scheduled at or before startRound is marked consumed — a party resuming
// at round r was, by construction, already killed by the kill that put it
// there, so the same plan can be re-applied without re-firing it.
func WrapAt(inner transport.Net, plan *Plan, startRound int) *Net {
	if plan == nil {
		plan = &Plan{}
	}
	n := &Net{
		inner:      inner,
		plan:       plan,
		self:       int(inner.ID()),
		round:      startRound,
		held:       make(map[int][]transport.Packet),
		digest:     hashing.FNVOffset,
		killsFired: make([]bool, len(plan.Kills)),
	}
	for i := range plan.Kills {
		k := &plan.Kills[i]
		if k.Party == n.self && (k.Round < startRound || (startRound > 0 && k.Round == startRound)) {
			n.killsFired[i] = true
		}
	}
	return n
}

// ID implements transport.Net.
func (f *Net) ID() transport.PartyID { return f.inner.ID() }

// N implements transport.Net.
func (f *Net) N() int { return f.inner.N() }

// T implements transport.Net.
func (f *Net) T() int { return f.inner.T() }

// Round returns the number of rounds this wrapper has completed.
func (f *Net) Round() int { return f.round }

// Transcript returns a digest of every message delivered to this party so
// far (round, sender, payload). Two runs of a deterministic protocol under
// the same plan and seed yield identical transcripts at every party.
func (f *Net) Transcript() uint64 { return f.digest }

// Exchange implements transport.Net, applying the plan's sender-side faults
// to out and the crash window to the inbox.
func (f *Net) Exchange(out []transport.Packet) ([]transport.Message, error) {
	r := f.round
	// Kills fire before anything reaches the inner transport, so the inner
	// connection's round equals the checkpoint's recorded round count and a
	// resumed party picks up exactly where the kill struck.
	for i := range f.plan.Kills {
		k := &f.plan.Kills[i]
		if k.Party == f.self && k.Round == r && !f.killsFired[i] {
			f.killsFired[i] = true
			return nil, fmt.Errorf("%w: party %d at round %d", ErrKilled, f.self, r)
		}
	}
	if f.plan.MaxRounds > 0 && r >= f.plan.MaxRounds {
		return nil, fmt.Errorf("%w: %d rounds", ErrRoundLimit, r)
	}

	crashed := f.crashedAt(f.self, r)
	send := out
	if crashed {
		// A crashed party emits nothing; delayed packets scheduled for this
		// round die with it.
		delete(f.held, r)
		send = nil
	} else if f.planTouches(r) || len(f.held) > 0 {
		send = f.applyFaults(out, r)
	}

	in, err := f.inner.Exchange(send)
	f.round++
	if err != nil {
		return nil, err
	}
	if crashed {
		// Receives nothing during the window either.
		in = nil
	}
	for _, m := range in {
		f.absorb(r, m)
	}
	return in, nil
}

// planTouches reports whether any rule, partition, or crash could affect
// traffic this party sends in round r — the fast-path guard that keeps the
// disabled wrapper a pure passthrough.
func (f *Net) planTouches(r int) bool {
	for i := range f.plan.Rules {
		ru := &f.plan.Rules[i]
		if (ru.From == Any || ru.From == f.self) && inWindow(r, ru.FromRound, ru.ToRound) {
			return true
		}
	}
	for i := range f.plan.Partitions {
		if inWindow(r, f.plan.Partitions[i].FromRound, f.plan.Partitions[i].ToRound) {
			return true
		}
	}
	for i := range f.plan.Crashes {
		c := &f.plan.Crashes[i]
		if inWindow(r, c.FromRound, c.ToRound) {
			return true
		}
	}
	return false
}

// applyFaults rewrites the outgoing packet set for round r.
func (f *Net) applyFaults(out []transport.Packet, r int) []transport.Packet {
	kept := make([]transport.Packet, 0, len(out)+len(f.held[r]))
	kept = append(kept, f.held[r]...)
	delete(f.held, r)
	for idx, p := range out {
		to := int(p.To)
		if f.cutByPartition(r, to) {
			continue
		}
		// A message to a crashed recipient is lost: the receiver-side
		// discard at the crashed party's own wrapper already models this,
		// so nothing to do here; self-addressed packets are exempt from
		// link faults (a party cannot fault its own memory).
		if to == f.self {
			kept = append(kept, p)
			continue
		}
		dropped := false
		for ri := range f.plan.Rules {
			ru := &f.plan.Rules[ri]
			if !ru.matches(f.self, to, r) {
				continue
			}
			if !f.roll(ru.Prob, r, to, ri, idx) {
				continue
			}
			switch ru.Kind {
			case Drop:
				dropped = true
			case Delay:
				d := ru.DelayRounds
				if d <= 0 {
					d = 1
				}
				// Defensive copy: the packet is resent d rounds from now,
				// but the transport contract only guarantees the caller's
				// payload through this Exchange call — senders may reuse
				// scratch buffers, and zero-copy paths (pooled wire frames,
				// the mux bump buffer) recycle payload memory per round.
				p.Payload = append([]byte(nil), p.Payload...)
				f.held[r+d] = append(f.held[r+d], p)
				dropped = true
			case Duplicate:
				kept = append(kept, p)
			case Corrupt:
				p = transport.Packet{To: p.To, Tag: p.Tag, Payload: f.corrupt(p.Payload, r, to, ri)}
			}
			if dropped {
				break
			}
		}
		if !dropped {
			kept = append(kept, p)
		}
	}
	return kept
}

func (ru *Rule) matches(from, to, round int) bool {
	if ru.From != Any && ru.From != from {
		return false
	}
	if ru.To != Any && ru.To != to {
		return false
	}
	return inWindow(round, ru.FromRound, ru.ToRound)
}

func inWindow(r, from, to int) bool {
	return r >= from && (to <= 0 || r < to)
}

func (f *Net) crashedAt(party, r int) bool {
	for i := range f.plan.Crashes {
		c := &f.plan.Crashes[i]
		if c.Party == party && inWindow(r, c.FromRound, c.ToRound) {
			return true
		}
	}
	return false
}

func (f *Net) cutByPartition(r, to int) bool {
	if to == f.self {
		return false
	}
	for i := range f.plan.Partitions {
		pa := &f.plan.Partitions[i]
		if !inWindow(r, pa.FromRound, pa.ToRound) {
			continue
		}
		inA := func(id int) bool {
			for _, a := range pa.GroupA {
				if a == id {
					return true
				}
			}
			return false
		}
		if inA(f.self) != inA(to) {
			return true
		}
	}
	return false
}

// roll decides one probabilistic fault deterministically: the same
// (seed, round, link, rule, message) always lands on the same side.
func (f *Net) roll(prob float64, round, to, rule, msg int) bool {
	if prob >= 1 {
		return true
	}
	if prob <= 0 {
		return false
	}
	h := mix(uint64(f.plan.Seed), uint64(round), uint64(f.self), uint64(to), uint64(rule), uint64(msg))
	return float64(h>>11)/float64(1<<53) < prob
}

// corrupt returns a copy of payload with deterministic byte flips. Empty
// payloads are corrupted into a single garbage byte so the fault is never a
// silent no-op.
func (f *Net) corrupt(payload []byte, round, to, rule int) []byte {
	h := mix(uint64(f.plan.Seed)^0xc0ffee, uint64(round), uint64(f.self), uint64(to), uint64(rule))
	if len(payload) == 0 {
		return []byte{byte(h | 1)}
	}
	out := make([]byte, len(payload))
	copy(out, payload)
	out[h%uint64(len(out))] ^= byte(h>>8) | 0x01
	return out
}

// absorb folds one delivered message into the transcript digest.
func (f *Net) absorb(round int, m transport.Message) {
	d := f.digest
	d = hashing.FNVWord(d, uint64(round))
	d = hashing.FNVWord(d, uint64(m.From))
	d = hashing.FNVWord(d, uint64(len(m.Payload)))
	f.digest = hashing.FNVBytes(d, m.Payload)
}

// mix is splitmix64 over the concatenated words — a tiny, well-distributed
// hash for fault decisions (not cryptographic; determinism is the point).
func mix(words ...uint64) uint64 {
	x := uint64(0x9e3779b97f4a7c15)
	for _, w := range words {
		x ^= w + 0x9e3779b97f4a7c15 + (x << 6) + (x >> 2)
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		x = z ^ (z >> 31)
	}
	if x == 0 {
		return 1
	}
	return x
}
