package convexagreement

import (
	"fmt"

	"convexagreement/internal/faultnet"
)

// This file is the public face of the deterministic fault-injection layer
// (internal/faultnet): WrapFaulty interposes a seed-keyed fault schedule
// between a protocol and any Transport, so deployments can rehearse drops,
// delays beyond Δ, duplication, corruption, partitions, and crash/restart
// windows — and replay any run exactly from its seed.

// AnyParty matches every party in a FaultRule's From/To position.
const AnyParty = -1

// FaultKind selects what a FaultRule does to a matching message.
type FaultKind uint8

// The fault kinds.
const (
	// FaultDrop omits the message entirely (omission past Δ).
	FaultDrop FaultKind = iota
	// FaultDelay slides the message DelayRounds rounds later; the
	// recipient sees it as part of a later round's traffic.
	FaultDelay
	// FaultDuplicate delivers the message twice in the same round.
	FaultDuplicate
	// FaultCorrupt flips payload bytes (on a copy; the sender's buffer is
	// untouched).
	FaultCorrupt
)

// FaultRule injects one fault kind on matching (From → To) links during the
// round window [FromRound, ToRound); ToRound ≤ 0 means unbounded. Each
// matching message is hit independently with probability Prob, decided by a
// deterministic hash of (seed, round, link, rule, message index) — never by
// a global RNG — so identical configurations replay identical faults.
type FaultRule struct {
	Kind        FaultKind
	From, To    int // party index or AnyParty
	FromRound   int
	ToRound     int
	Prob        float64
	DelayRounds int // FaultDelay only; 0 means 1
}

// FaultPartition cuts every link crossing the GroupA / rest boundary, both
// directions, during [FromRound, ToRound) — a clean split that heals when
// the window ends.
type FaultPartition struct {
	FromRound int
	ToRound   int
	GroupA    []int
}

// FaultCrash silences one party for rounds [FromRound, ToRound): it sends
// nothing and receives nothing, then resumes — a crash with restart.
type FaultCrash struct {
	Party     int
	FromRound int
	ToRound   int
}

// FaultKill hard-fails one party's Exchange at the start of round Round
// with ErrKilled — a process crash, unlike FaultCrash's silence window.
// Recovery is explicit: restart the party (typically from a checkpointed
// Session) and re-wrap its transport with WrapFaultyAt at the resume
// round, which marks the fired kill consumed. Each kill fires at most once
// per wrapper.
type FaultKill struct {
	Party int
	Round int
}

// FaultConfig is a per-round, per-link fault schedule. The zero value
// injects nothing (the wrapper is then an exact passthrough). Every party
// of a cluster must be wrapped with an identical FaultConfig: decisions are
// pure functions of the configuration and the round, so equal configs —
// even in different processes — make identical choices, no shared state
// needed.
type FaultConfig struct {
	// Seed keys every probabilistic decision.
	Seed       int64
	Rules      []FaultRule
	Partitions []FaultPartition
	Crashes    []FaultCrash
	Kills      []FaultKill
	// MaxRounds, when positive, fails Exchange after that many rounds
	// instead of letting a fault-starved protocol hang. Zero (the default)
	// means unlimited — there is no cutoff, not a zero-round cutoff.
	MaxRounds int
}

// validate rejects configurations that would silently misbehave: rules
// with probabilities outside [0, 1], inverted or negative round windows,
// negative delays, party indices below AnyParty, and a negative MaxRounds
// (zero means unlimited; negative is always a mistake).
func (c FaultConfig) validate() error {
	if c.MaxRounds < 0 {
		return fmt.Errorf("%w: MaxRounds %d is negative (0 means unlimited)", ErrOptions, c.MaxRounds)
	}
	for i, r := range c.Rules {
		switch {
		case r.Prob < 0 || r.Prob > 1:
			return fmt.Errorf("%w: rule %d Prob %v outside [0, 1]", ErrOptions, i, r.Prob)
		case r.From < AnyParty || r.To < AnyParty:
			return fmt.Errorf("%w: rule %d party index below AnyParty", ErrOptions, i)
		case r.FromRound < 0:
			return fmt.Errorf("%w: rule %d FromRound %d is negative", ErrOptions, i, r.FromRound)
		case r.ToRound > 0 && r.ToRound <= r.FromRound:
			return fmt.Errorf("%w: rule %d window [%d, %d) is empty", ErrOptions, i, r.FromRound, r.ToRound)
		case r.DelayRounds < 0:
			return fmt.Errorf("%w: rule %d DelayRounds %d is negative", ErrOptions, i, r.DelayRounds)
		case r.Kind > FaultCorrupt:
			return fmt.Errorf("%w: rule %d unknown fault kind %d", ErrOptions, i, r.Kind)
		}
	}
	for i, p := range c.Partitions {
		if p.FromRound < 0 {
			return fmt.Errorf("%w: partition %d FromRound %d is negative", ErrOptions, i, p.FromRound)
		}
		if p.ToRound > 0 && p.ToRound <= p.FromRound {
			return fmt.Errorf("%w: partition %d window [%d, %d) is empty", ErrOptions, i, p.FromRound, p.ToRound)
		}
	}
	for i, cr := range c.Crashes {
		switch {
		case cr.Party < 0:
			return fmt.Errorf("%w: crash %d party %d is negative", ErrOptions, i, cr.Party)
		case cr.FromRound < 0:
			return fmt.Errorf("%w: crash %d FromRound %d is negative", ErrOptions, i, cr.FromRound)
		case cr.ToRound > 0 && cr.ToRound <= cr.FromRound:
			return fmt.Errorf("%w: crash %d window [%d, %d) is empty", ErrOptions, i, cr.FromRound, cr.ToRound)
		}
	}
	for i, k := range c.Kills {
		if k.Party < 0 || k.Round < 0 {
			return fmt.Errorf("%w: kill %d has negative party or round", ErrOptions, i)
		}
	}
	return nil
}

func (c FaultConfig) plan() *faultnet.Plan {
	plan := &faultnet.Plan{Seed: c.Seed, MaxRounds: c.MaxRounds}
	for _, r := range c.Rules {
		plan.Rules = append(plan.Rules, faultnet.Rule{
			Kind:        faultnet.Kind(r.Kind),
			From:        r.From,
			To:          r.To,
			FromRound:   r.FromRound,
			ToRound:     r.ToRound,
			Prob:        r.Prob,
			DelayRounds: r.DelayRounds,
		})
	}
	for _, p := range c.Partitions {
		plan.Partitions = append(plan.Partitions, faultnet.Partition{
			FromRound: p.FromRound,
			ToRound:   p.ToRound,
			GroupA:    append([]int(nil), p.GroupA...),
		})
	}
	for _, cr := range c.Crashes {
		plan.Crashes = append(plan.Crashes, faultnet.Crash{
			Party:     cr.Party,
			FromRound: cr.FromRound,
			ToRound:   cr.ToRound,
		})
	}
	for _, k := range c.Kills {
		plan.Kills = append(plan.Kills, faultnet.Kill{Party: k.Party, Round: k.Round})
	}
	return plan
}

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
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &FaultyTransport{inner: tr, net: faultnet.WrapAt(tr, cfg.plan(), int(startRound))}, nil
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
