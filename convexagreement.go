// Package convexagreement is a from-scratch Go implementation of
// "Communication-Optimal Convex Agreement" (Ghinea, Liu-Zhang, Wattenhofer;
// PODC 2024): deterministic Convex Agreement (CA) for integer inputs in the
// synchronous plain model, resilient against t < n/3 byzantine corruptions,
// with communication complexity O(ℓn + κ·n²·log²n) bits for ℓ-bit inputs.
//
// Convex Agreement strengthens Byzantine Agreement: all honest parties
// terminate with the same output, and that output always lies within the
// convex hull (the range, for integers) of the honest parties' inputs — a
// byzantine minority can never drag the decision outside what honest
// parties actually proposed.
//
// # Two ways to use the library
//
// Simulation (this package's Agree function): run a full protocol instance
// over the built-in synchronous network simulator, with configurable
// byzantine adversaries and exact communication/round accounting. This is
// how the repository's experiments (see EXPERIMENTS.md) are produced.
//
// Deployment (RunParty + a Transport): run one party of the protocol over
// any synchronous transport. DialTCP provides a ready-made TCP mesh with
// Δ-timeout round synchronization; implementing the small Transport
// interface plugs in anything else.
package convexagreement

import (
	"errors"
	"fmt"
	"math/big"

	"convexagreement/internal/sim"
)

// Protocol selects which Convex Agreement protocol to run.
type Protocol string

// The available protocols.
const (
	// ProtoOptimal is the paper's headline protocol Π_ℤ (§6, Corollary 2):
	// CA for arbitrary integers, O(ℓn + κ·n²·log²n) bits, O(n log n)
	// rounds. This is the default.
	ProtoOptimal Protocol = "optimal"
	// ProtoOptimalNat is Π_ℕ (§5, Theorem 5): the same protocol restricted
	// to natural-number inputs (skips the sign round).
	ProtoOptimalNat Protocol = "optimal-nat"
	// ProtoFixedLength is FIXEDLENGTHCA (§3, Theorem 2): requires a public
	// input width (Options.Width) and naturals below 2^Width.
	ProtoFixedLength Protocol = "fixed-length"
	// ProtoFixedLengthBlocks is FIXEDLENGTHCABLOCKS (§4, Theorem 4): the
	// block-granular variant; Options.Width must be a multiple of n².
	ProtoFixedLengthBlocks Protocol = "fixed-length-blocks"
	// ProtoHighCost is HIGHCOSTCA (Theorem 3): the O(ℓn³)-bit, O(n)-round
	// king protocol, included as a baseline.
	ProtoHighCost Protocol = "highcost"
	// ProtoBroadcast is the broadcast-based baseline of §1: n extension
	// broadcasts plus a trimmed-median rule, Θ(ℓn²) bits.
	ProtoBroadcast Protocol = "broadcast"
	// ProtoBroadcastParallel is ProtoBroadcast with its n broadcasts
	// composed in parallel: same Θ(ℓn²) bits, ~n× fewer rounds.
	ProtoBroadcastParallel Protocol = "broadcast-parallel"
)

// Protocols lists every selectable protocol.
func Protocols() []Protocol {
	return []Protocol{
		ProtoOptimal, ProtoOptimalNat, ProtoFixedLength,
		ProtoFixedLengthBlocks, ProtoHighCost, ProtoBroadcast,
		ProtoBroadcastParallel,
	}
}

// AcceptsNegative reports whether the protocol's input domain is ℤ (only
// Π_ℤ) rather than ℕ.
func (p Protocol) AcceptsNegative() bool { return p == ProtoOptimal }

// NeedsWidth reports whether the protocol requires Options.Width.
func (p Protocol) NeedsWidth() bool {
	return p == ProtoFixedLength || p == ProtoFixedLengthBlocks
}

// AdversaryKind names a byzantine strategy for simulated corrupted parties.
type AdversaryKind string

// The built-in adversary strategies.
const (
	// AdvSilent never sends anything (crash from the start).
	AdvSilent AdversaryKind = "silent"
	// AdvCrash participates silently for a few rounds, then stops.
	AdvCrash AdversaryKind = "crash"
	// AdvGarbage floods undecodable random payloads.
	AdvGarbage AdversaryKind = "garbage"
	// AdvEquivocate rushes each round and relays conflicting honest
	// payloads to different halves of the network.
	AdvEquivocate AdversaryKind = "equivocate"
	// AdvMirror rushes and echoes plausible honest payloads.
	AdvMirror AdversaryKind = "mirror"
	// AdvSpam sends duplicated and mutated copies of honest payloads.
	AdvSpam AdversaryKind = "spam"
	// AdvReplay rushes, records honest payloads, and resends them verbatim
	// in later rounds — stale but well-formed evidence.
	AdvReplay AdversaryKind = "replay"
	// AdvLateJoin stays dark for a few rounds, then rejoins by mirroring
	// current honest traffic, like a restarted party.
	AdvLateJoin AdversaryKind = "late-join"
	// AdvGhost runs the honest protocol with an adversarially chosen input
	// (Corruption.Input) — the canonical attack on convex validity, the
	// paper's +100°C sensor.
	AdvGhost AdversaryKind = "ghost"
)

// AdversaryKinds lists every built-in strategy.
func AdversaryKinds() []AdversaryKind {
	return []AdversaryKind{AdvSilent, AdvCrash, AdvGarbage, AdvEquivocate, AdvMirror, AdvSpam, AdvReplay, AdvLateJoin, AdvGhost}
}

// Corruption assigns a strategy to one corrupted party.
type Corruption struct {
	Kind AdversaryKind
	// Input is the poisoned input for AdvGhost; ignored otherwise.
	Input *big.Int
	// InputVector is the poisoned input for AdvGhost under AgreeVector; if
	// nil, Input is replicated across coordinates.
	InputVector []*big.Int
}

// Options configures a simulated run.
type Options struct {
	// N is the number of parties (defaults to len(inputs)).
	N int
	// T is the corruption budget; defaults to ⌊(N−1)/3⌋, the optimal
	// resilience. Agree fails if more than T corruptions are requested.
	T int
	// Protocol defaults to ProtoOptimal.
	Protocol Protocol
	// Width is the public input bit-length for the fixed-length protocols.
	Width int
	// Corruptions maps party index → strategy. Inputs of corrupted parties
	// are ignored (byzantine parties have no "input" in the model).
	Corruptions map[int]Corruption
	// Seed makes adversary randomness reproducible.
	Seed int64
	// MaxRounds aborts runaway runs; 0 uses a generous default.
	MaxRounds int
	// Timeline, when set, records per-round traffic in Result.Timeline.
	Timeline bool
}

// Result reports the outcome and the paper's cost measures for one run.
type Result struct {
	// Output is the agreed value (identical across honest parties).
	Output *big.Int
	// Outputs lists each honest party's output, keyed by party index.
	Outputs map[int]*big.Int
	// Rounds is ROUNDS(Π): completed lock-step rounds.
	Rounds int
	// HonestBits is BITS(Π): total payload bits sent by honest parties.
	HonestBits int64
	// CorruptBits counts payload bits sent by corrupted parties.
	CorruptBits int64
	// Messages counts delivered non-self messages.
	Messages int64
	// BitsByLabel breaks HonestBits down by protocol-internal label
	// (e.g. "ca/mag/flca/fp/lba/root/dist" — see DESIGN.md).
	BitsByLabel map[string]int64
	// RoundsByLabel is the number of rounds honest parties sent under each
	// label: where ROUNDS(Π) goes, step by step.
	RoundsByLabel map[string]int
	// Timeline holds per-round traffic when Options.Timeline was set.
	Timeline []RoundStats
	// BitsByParty is each party's sent payload bits (0 for corrupted
	// parties): the paper's protocols concentrate load on the value
	// holders during dispersal, and this exposes that balance.
	BitsByParty []int64
}

// RoundStats is one round's traffic in Result.Timeline — the simulator's
// own record, so a timeline crosses the public API without conversion:
//
//	Round       int   // 0-based round index
//	Messages    int64 // delivered non-self messages
//	HonestBits  int64 // payload bits sent by honest parties
//	CorruptBits int64 // payload bits sent by corrupted parties
type RoundStats = sim.RoundStats

// Errors returned by the public API.
var (
	// ErrOptions reports invalid Options.
	ErrOptions = errors.New("convexagreement: invalid options")
	// ErrDisagreement reports an internal violation of the Agreement
	// property; it indicates a bug and should never be observed.
	ErrDisagreement = errors.New("convexagreement: honest parties disagree")
)

// Hull returns the convex hull [lo, hi] of the given values.
func Hull(values []*big.Int) (lo, hi *big.Int, err error) {
	if len(values) == 0 {
		return nil, nil, fmt.Errorf("%w: no values", ErrOptions)
	}
	for _, v := range values {
		if v == nil {
			return nil, nil, fmt.Errorf("%w: nil value", ErrOptions)
		}
		if lo == nil || v.Cmp(lo) < 0 {
			lo = v
		}
		if hi == nil || v.Cmp(hi) > 0 {
			hi = v
		}
	}
	return lo, hi, nil
}

// InHull reports whether v lies within the convex hull of values.
func InHull(v *big.Int, values []*big.Int) bool {
	lo, hi, err := Hull(values)
	if err != nil || v == nil {
		return false
	}
	return v.Cmp(lo) >= 0 && v.Cmp(hi) <= 0
}
