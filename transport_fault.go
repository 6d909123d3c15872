package convexagreement

import (
	"fmt"
	"slices"

	"convexagreement/internal/faultnet"
)

// This file is the public face of the deterministic fault-injection layer
// (internal/faultnet): WrapFaulty interposes a seed-keyed fault schedule
// between a protocol and any Transport, so deployments can rehearse drops,
// delays beyond Δ, duplication, corruption, partitions, and crash/restart
// windows — and replay any run exactly from its seed.

// The schedule's types are internal/faultnet's own, so a FaultConfig reaches
// the injector without conversion; the fields of each are listed here
// because go doc does not print an aliased type's.

// AnyParty matches every party in a FaultRule's From/To position.
const AnyParty = faultnet.Any

// FaultKind selects what a FaultRule does to a matching message.
type FaultKind = faultnet.Kind

// The fault kinds.
const (
	// FaultDrop omits the message entirely (omission past Δ).
	FaultDrop = faultnet.Drop
	// FaultDelay slides the message DelayRounds rounds later; the
	// recipient sees it as part of a later round's traffic.
	FaultDelay = faultnet.Delay
	// FaultDuplicate delivers the message twice in the same round.
	FaultDuplicate = faultnet.Duplicate
	// FaultCorrupt flips payload bytes (on a copy; the sender's buffer is
	// untouched).
	FaultCorrupt = faultnet.Corrupt
)

// FaultRule injects one fault kind on matching (From → To) links during the
// round window [FromRound, ToRound); ToRound ≤ 0 means unbounded. Each
// matching message is hit independently with probability Prob, decided by a
// deterministic hash of (seed, round, link, rule, message index) — never by
// a global RNG — so identical configurations replay identical faults.
//
//	Kind        FaultKind
//	From, To    int // party index or AnyParty
//	FromRound   int
//	ToRound     int
//	Prob        float64
//	DelayRounds int // FaultDelay only; 0 means 1
type FaultRule = faultnet.Rule

// FaultPartition cuts every link crossing the GroupA / rest boundary, both
// directions, during [FromRound, ToRound) — a clean split that heals when
// the window ends.
//
//	FromRound int
//	ToRound   int
//	GroupA    []int
type FaultPartition = faultnet.Partition

// FaultCrash silences one party for rounds [FromRound, ToRound): it sends
// nothing and receives nothing, then resumes — a crash with restart.
//
//	Party     int
//	FromRound int
//	ToRound   int
type FaultCrash = faultnet.Crash

// FaultKill hard-fails one party's Exchange at the start of round Round
// with ErrKilled — a process crash, unlike FaultCrash's silence window.
// Recovery is explicit: restart the party (typically from a checkpointed
// Session) and re-wrap its transport with WrapFaultyAt at the resume
// round, which marks the fired kill consumed. Each kill fires at most once
// per wrapper.
//
//	Party int
//	Round int
type FaultKill = faultnet.Kill

// FaultConfig is a per-round, per-link fault schedule. The zero value
// injects nothing (the wrapper is then an exact passthrough). Every party
// of a cluster must be wrapped with an identical FaultConfig: decisions are
// pure functions of the configuration and the round, so equal configs —
// even in different processes — make identical choices, no shared state
// needed.
//
//	Seed       int64 // keys every probabilistic decision
//	Rules      []FaultRule
//	Partitions []FaultPartition
//	Crashes    []FaultCrash
//	Kills      []FaultKill
//	MaxRounds  int // when positive, Exchange fails after that many rounds instead of letting a fault-starved protocol hang; zero means unlimited
type FaultConfig = faultnet.Plan

// ErrKilled reports that a scheduled FaultKill fired at this party.
var ErrKilled = faultnet.ErrKilled

// FaultyTransport is a Transport with a fault schedule interposed on its
// outgoing (and, for crash windows, incoming) traffic.
type FaultyTransport struct {
	inner Transport
	net   *faultnet.Net
}

var _ Transport = (*FaultyTransport)(nil)

// WrapFaulty interposes the fault schedule on tr. The wrapped transport is
// used in place of tr by this party; faults are applied on the sender side,
// so each link fault happens exactly once even though every party carries
// its own wrapper. The configuration is validated up front: out-of-range
// probabilities, inverted windows, and negative counts return ErrOptions
// instead of silently misbehaving.
func WrapFaulty(tr Transport, cfg FaultConfig) (*FaultyTransport, error) {
	return WrapFaultyAt(tr, cfg, 0)
}

// WrapFaultyAt is WrapFaulty for a restarted party: the wrapper's round
// counter starts at startRound (the checkpointed resume round reported by
// InspectState), and every FaultKill at or before startRound is marked
// consumed, so the identical FaultConfig can be re-applied across restarts
// without re-firing the kill that caused them.
func WrapFaultyAt(tr Transport, cfg FaultConfig, startRound uint64) (*FaultyTransport, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrOptions, err)
	}
	// The wrapper keeps its own copy of the schedule: the caller's slices
	// stay the caller's to reuse or edit.
	plan := cfg
	plan.Rules = slices.Clone(cfg.Rules)
	plan.Partitions = slices.Clone(cfg.Partitions)
	for i, p := range plan.Partitions {
		plan.Partitions[i].GroupA = slices.Clone(p.GroupA)
	}
	plan.Crashes = slices.Clone(cfg.Crashes)
	plan.Kills = slices.Clone(cfg.Kills)
	return &FaultyTransport{inner: tr, net: faultnet.WrapAt(tr, &plan, int(startRound))}, nil
}

// ID implements Transport.
func (f *FaultyTransport) ID() int { return f.net.ID() }

// N implements Transport.
func (f *FaultyTransport) N() int { return f.net.N() }

// T implements Transport.
func (f *FaultyTransport) T() int { return f.net.T() }

// Exchange implements Transport, applying the schedule's faults for the
// current round on the way through.
func (f *FaultyTransport) Exchange(out []Packet) ([]Message, error) { return f.net.Exchange(out) }

// Round returns how many rounds this wrapper has completed.
func (f *FaultyTransport) Round() int { return f.net.Round() }

// Transcript returns a digest of everything delivered through this wrapper,
// for asserting that two seeded runs replayed identically.
func (f *FaultyTransport) Transcript() uint64 { return f.net.Transcript() }
