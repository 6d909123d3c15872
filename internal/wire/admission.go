package wire

// This file is the ingress-admission layer in front of the pooled frame
// arena (DESIGN.md §2.10). The synchronous protocol tells us exactly how
// much traffic an honest peer may send per round — k payloads of bounded
// size, coalesced into one frame per neighbor — so anything materially
// beyond that bound is, by construction, not protocol traffic and can be
// refused *before* a single pooled byte is allocated for it. The admission
// check runs between a frame's announced length field and its body
// allocation: a hostile length field or a frame storm is charged against
// the sender's budget while it is still just a varint.
//
// Rate limiting is a token bucket keyed to the ROUND clock, not wall time:
// tokens replenish when the local party's round advances. This keeps the
// limiter deterministic (calint's wallclock/detrand checks stay clean in
// this package) and self-scaling — a slow cluster admits traffic slowly,
// a fast one quickly, with no tuning constant tied to real time. The
// burst capacity must cover the rejoin-replay case, where a recovering
// peer legitimately receives up to RejoinWindow buffered frames at once.
//
// Violations are typed (Reason) so transports can demote a peer with a
// structured verdict: budget (one frame too large), rate (cumulative
// frames/bytes beyond the bucket), stall (mid-frame trickle past the read
// deadline — slow-loris), protocol (structurally invalid frame), plus the
// handshake/unreachable reasons used by the connection layer itself.

import (
	"errors"
	"fmt"
	"sync"
)

// Reason classifies why ingress traffic from a peer was refused (and the
// peer demoted to faulty). ReasonNone is the zero value for live peers.
type Reason uint8

const (
	// ReasonNone: no violation (the peer is live).
	ReasonNone Reason = iota
	// ReasonBudget: a single frame announced more bytes than the per-frame
	// budget allows.
	ReasonBudget
	// ReasonRate: cumulative frames or bytes exceeded the round-clock
	// token bucket.
	ReasonRate
	// ReasonStall: the peer made partial progress on a frame and then
	// trickled past the read deadline (slow-loris signature).
	ReasonStall
	// ReasonProtocol: a structurally invalid frame (see ErrFrame).
	ReasonProtocol
	// ReasonHandshake: a hello/rejoin handshake violation (oversized or
	// malformed hello, rejoin gap beyond the replay window).
	ReasonHandshake
	// ReasonUnreachable: the reconnect budget for the peer's link was
	// exhausted without re-establishing it.
	ReasonUnreachable
)

// String returns the short lowercase label used in Stats and logs.
func (r Reason) String() string {
	switch r {
	case ReasonNone:
		return "none"
	case ReasonBudget:
		return "budget"
	case ReasonRate:
		return "rate"
	case ReasonStall:
		return "stall"
	case ReasonProtocol:
		return "protocol"
	case ReasonHandshake:
		return "handshake"
	case ReasonUnreachable:
		return "unreachable"
	default:
		return fmt.Sprintf("reason(%d)", uint8(r))
	}
}

// ErrAdmission is the sentinel wrapped by every AdmissionError, letting
// transports separate "this peer is hostile, demote it" (admission) from
// "this frame is garbage, demote it" (ErrFrame) and from plain I/O errors
// (reconnect).
var ErrAdmission = errors.New("wire: admission denied")

// AdmissionError is a typed ingress violation. It wraps ErrAdmission.
type AdmissionError struct {
	Reason Reason
	Detail string
}

func (e *AdmissionError) Error() string {
	return fmt.Sprintf("wire: admission denied (%s): %s", e.Reason, e.Detail)
}

func (e *AdmissionError) Unwrap() error { return ErrAdmission }

// StallError builds the slow-loris verdict the transport's read loop
// attaches when a read deadline expires mid-frame.
func StallError(detail string) *AdmissionError {
	return &AdmissionError{Reason: ReasonStall, Detail: detail}
}

// Gate admits or refuses one inbound frame of the announced size, before
// any allocation for its body. A nil Gate admits everything.
type Gate interface {
	AdmitFrame(size uint64) error
}

// Budget bounds what one peer may send this party, in protocol units.
// The zero value of any field is replaced by a permissive default (see
// normalized), so a partially specified budget tightens only the stated
// dimensions.
type Budget struct {
	// FrameBytes caps a single frame's announced body size. A frame over
	// this limit is refused with ReasonBudget before allocation.
	FrameBytes uint64
	// RoundFrames is the number of frame tokens replenished per round.
	RoundFrames uint64
	// RoundBytes is the number of body-byte tokens replenished per round.
	RoundBytes uint64
	// BurstRounds is the bucket capacity, expressed in rounds of
	// replenishment; it must cover the rejoin-replay burst (a recovering
	// peer receives up to RejoinWindow frames at once).
	BurstRounds uint64
}

// defaultBudget mirrors the transport's structural frame bound: nothing
// tighter than "one maximal frame per round with generous burst" unless
// the caller says so.
const (
	defaultFrameBytes  = 64 << 20 // = tcpnet maxFrame
	defaultRoundFrames = 8
	defaultBurstRounds = 144 // default RejoinWindow (128) + slack
)

// DefaultBudget returns the budget applied when a transport is configured
// without one: per-frame bound equal to the structural maxFrame, 8 frames
// per round, bytes uncapped below the structural bound, and burst capacity
// covering a full rejoin-replay window of rejoinWindow frames.
func DefaultBudget(maxFrame uint64, rejoinWindow int) Budget {
	b := Budget{
		FrameBytes:  maxFrame,
		RoundFrames: defaultRoundFrames,
		RoundBytes:  maxFrame,
		BurstRounds: uint64(rejoinWindow) + 16,
	}
	return b.normalized()
}

// normalized fills zero fields with permissive defaults and clamps the
// bucket capacities so they cannot overflow uint64 arithmetic.
func (b Budget) normalized() Budget {
	if b.FrameBytes == 0 {
		b.FrameBytes = defaultFrameBytes
	}
	if b.RoundFrames == 0 {
		b.RoundFrames = defaultRoundFrames
	}
	if b.RoundBytes == 0 {
		b.RoundBytes = b.FrameBytes
	}
	if b.RoundBytes < b.FrameBytes {
		// A budget that replenishes fewer bytes than one maximal frame
		// would starve honest maximal frames forever; lift the floor.
		b.RoundBytes = b.FrameBytes
	}
	if b.BurstRounds == 0 {
		b.BurstRounds = defaultBurstRounds
	}
	return b
}

// capacities returns the token-bucket capacities with saturating
// arithmetic (a deliberately huge budget must mean "unbounded", not wrap).
func (b Budget) capacities() (frameCap, byteCap uint64) {
	return mulSat(b.RoundFrames, b.BurstRounds), mulSat(b.RoundBytes, b.BurstRounds)
}

func mulSat(a, b uint64) uint64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > ^uint64(0)/b {
		return ^uint64(0)
	}
	return a * b
}

func addSat(a, b uint64) uint64 {
	if a > ^uint64(0)-b {
		return ^uint64(0)
	}
	return a + b
}

// AdmissionCounters is a snapshot of one peer's ingress accounting.
type AdmissionCounters struct {
	FramesAdmitted uint64
	BytesAdmitted  uint64
	FramesRejected uint64
}

// Admission is one peer's ingress gate: a round-clock token bucket plus
// the per-frame byte bound. It is safe for concurrent use (the transport's
// round loop Advances it while a read loop Admits against it, and read
// loops across reconnect generations may briefly overlap). The buckets
// start full so a peer's first burst — including a rejoin replay —
// is admitted without waiting for rounds to tick.
type Admission struct {
	mu       sync.Mutex
	budget   Budget
	round    uint64
	frames   uint64 // remaining frame tokens
	bytes    uint64 // remaining body-byte tokens
	counters AdmissionCounters
}

// NewAdmission builds a gate for one peer under b (normalized; zero
// fields become permissive defaults).
func NewAdmission(b Budget) *Admission {
	b = b.normalized()
	frameCap, byteCap := b.capacities()
	return &Admission{budget: b, frames: frameCap, bytes: byteCap}
}

// Budget returns the normalized budget the gate enforces.
func (a *Admission) Budget() Budget {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.budget
}

// Advance moves the gate's round clock forward, replenishing tokens for
// the rounds elapsed (capped at the burst capacity). Calls with a round
// at or behind the clock are no-ops, so it is safe to call once per read.
func (a *Admission) Advance(round uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if round <= a.round {
		return
	}
	d := round - a.round
	a.round = round
	if d > a.budget.BurstRounds {
		d = a.budget.BurstRounds
	}
	frameCap, byteCap := a.budget.capacities()
	if a.frames = addSat(a.frames, mulSat(d, a.budget.RoundFrames)); a.frames > frameCap {
		a.frames = frameCap
	}
	if a.bytes = addSat(a.bytes, mulSat(d, a.budget.RoundBytes)); a.bytes > byteCap {
		a.bytes = byteCap
	}
}

// AdmitFrame charges one frame of the announced body size against the
// peer's budget. It returns nil and debits the buckets when the frame is
// admitted; otherwise an *AdmissionError with ReasonBudget (frame too
// large) or ReasonRate (bucket empty). The happy path does not allocate.
func (a *Admission) AdmitFrame(size uint64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if size > a.budget.FrameBytes {
		a.counters.FramesRejected++
		return &AdmissionError{
			Reason: ReasonBudget,
			Detail: fmt.Sprintf("frame of %d bytes exceeds per-frame budget %d", size, a.budget.FrameBytes),
		}
	}
	if a.frames == 0 {
		a.counters.FramesRejected++
		return &AdmissionError{
			Reason: ReasonRate,
			Detail: fmt.Sprintf("frame rate exceeded at round %d (%d frames/round, burst %d rounds)",
				a.round, a.budget.RoundFrames, a.budget.BurstRounds),
		}
	}
	if a.bytes < size {
		a.counters.FramesRejected++
		return &AdmissionError{
			Reason: ReasonRate,
			Detail: fmt.Sprintf("byte rate exceeded at round %d: frame of %d bytes, %d byte tokens left",
				a.round, size, a.bytes),
		}
	}
	a.frames--
	a.bytes -= size
	a.counters.FramesAdmitted++
	a.counters.BytesAdmitted += size
	return nil
}

// Counters returns a snapshot of the peer's ingress accounting.
func (a *Admission) Counters() AdmissionCounters {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.counters
}
