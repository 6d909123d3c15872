// Package sim implements the synchronous network model of Section 2 of the
// paper: n parties in a fully connected network of authenticated channels,
// lock-step rounds (every message sent in round r is delivered at the start
// of round r+1), and a rushing byzantine adversary controlling up to t
// parties.
//
// Every party — honest protocol code and adversarial strategy alike — runs
// as a goroutine executing sequential code against an *Env. A round closes
// once every still-active party has submitted its outgoing packets; the
// scheduler then delivers all packets and wakes everyone. Corrupted parties
// may call Env.PeekHonest to observe the honest packets of the current round
// before choosing their own (the rushing adversary).
//
// A round allocates nothing in steady state. The inboxes are carved from
// one array the scheduler refills at every round close, as transport.Net's
// lifetime rule allows: a round closes only once every active party has
// called Exchange again. The rushing snapshot is likewise a slice refilled
// every round, valid until the peeker's own Exchange; only its payload
// copies are never rewritten (see Spied).
//
// The scheduler also implements the paper's cost measures: BITS_ℓ(Π) — the
// total payload bits sent by honest parties — broken down by protocol tag,
// and ROUNDS_ℓ(Π) — the number of completed rounds. Self-addressed packets
// are delivered but not counted (a party "sending to itself" is free).
package sim

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"convexagreement/internal/transport"
)

// Spied is a packet as observed by the rushing adversary: the full routing
// information of an honest packet in the current, not-yet-delivered round.
//
// Lifetime and immutability: the scheduler builds one snapshot per round
// and hands the same slice to every corrupted party that peeks, so Spied
// values and their Payload bytes are strictly read-only. The slice is the
// scheduler's, refilled every round: it is valid until the peeker's own
// Exchange for the round. The payloads are private copies of the honest
// packets (mutating them cannot corrupt deliveries) that are never
// rewritten, so a strategy may keep a payload for the rest of the run; but
// one that writes to them would leak state to other peekers, so treat them
// as frozen.
type Spied struct {
	From    PartyID
	To      PartyID
	Payload []byte
}

// Behavior is the code a party runs: honest protocol logic or an adversarial
// strategy. It may return an error to abort (honest errors fail the run;
// corrupt errors are recorded but tolerated).
type Behavior func(env *Env) error

// Party pairs a behavior with its corruption status.
type Party struct {
	Behavior Behavior
	Corrupt  bool
}

// Config parameterizes a run.
type Config struct {
	// N is the number of parties; T the corruption budget handed to the
	// protocols (the number of actually corrupted parties may be lower).
	N int
	T int
	// MaxRounds aborts runs that exceed it — a desynchronization bug then
	// surfaces as an error instead of a hang. 0 means DefaultMaxRounds.
	MaxRounds int
	// Timeline, when set, records per-round traffic statistics in
	// Report.Timeline (at O(rounds) extra memory).
	Timeline bool
}

// DefaultMaxRounds is the round cutoff when Config.MaxRounds is zero.
const DefaultMaxRounds = 200000

// spyChunk is the smallest chunk the rushing snapshot's payload copies are
// carved from: at n = 16 with 512-byte broadcasts one chunk lasts about a
// dozen rounds.
const spyChunk = 64 << 10

// Errors surfaced to behaviors and callers.
var (
	ErrSimOver    = errors.New("sim: simulation is over (all honest parties finished)")
	ErrCutoff     = errors.New("sim: round cutoff exceeded")
	ErrNotCorrupt = errors.New("sim: PeekHonest is only available to corrupted parties")
)

// Report summarizes a completed run.
type Report struct {
	// Rounds is ROUNDS(Π): the number of completed lock-step rounds.
	Rounds int
	// HonestBits is BITS(Π): payload bits sent by honest parties to others.
	HonestBits int64
	// CorruptBits counts payload bits sent by corrupted parties.
	CorruptBits int64
	// Messages counts non-self packets delivered (honest + corrupt).
	Messages int64
	// BitsByTag breaks HonestBits down by packet tag.
	BitsByTag map[string]int64
	// RoundsByTag is the number of rounds in which some honest party sent
	// under the tag. In a protocol that runs its steps one after another
	// the counts add up to Rounds, less the rounds no honest party spoke in.
	RoundsByTag map[string]int
	// BitsByParty is per-party honest sent bits (corrupt entries are 0);
	// useful for load-balance analysis.
	BitsByParty []int64
	// PartyErrors holds each party's returned error (nil if none).
	PartyErrors []error
	// Timeline holds per-round statistics when Config.Timeline was set.
	Timeline []RoundStats
}

// RoundStats is one round's traffic in a Timeline.
type RoundStats struct {
	Round       int
	Messages    int64
	HonestBits  int64
	CorruptBits int64
}

type runner struct {
	cfg     Config
	corrupt []bool

	mu   sync.Mutex
	cond *sync.Cond

	round        int
	active       []bool // party still running
	activeHonest int
	activeTotal  int
	submitted    []bool
	// submittedCount tracks how many active parties have submitted the
	// current round, so round close is detected in O(1) per submission
	// instead of an O(n) scan (O(n²) per round).
	submittedCount int
	pending        [][]Packet // this round's outgoing packets per party
	pendingBuf     [][]Packet // per-party reusable packet backing arrays
	honestPending  int        // count of active honest parties that submitted
	lastInbox      [][]Message
	// inboxFlat backs every lastInbox, carved per round. Refilling it at
	// round close is safe under transport.Net's lifetime rule: a round
	// closes only once every active party has called Exchange again.
	inboxFlat  []Message
	inboxCount []int    // per-recipient packet counts, reused every round
	roundTags  []string // the round's distinct honest tags, reused every round
	// spied is the current round's rushing-adversary snapshot, refilled at
	// most once per round on first peek and shared read-only by all
	// peekers (see the Spied doc comment). spyBytes is the chunk its
	// payload copies are carved from: append-only, a full chunk is
	// replaced, never rewritten.
	spied      []Spied
	spiedValid bool
	spyBytes   []byte
	failed     error // cutoff or internal failure; broadcast to all

	report Report
}

// Env is a party's handle to the network. Each Env is used by exactly one
// goroutine.
type Env struct {
	r  *runner
	id PartyID
}

// ID returns this party's identifier.
func (e *Env) ID() PartyID { return e.id }

// N returns the total number of parties.
func (e *Env) N() int { return e.r.cfg.N }

// T returns the protocol's corruption budget t.
func (e *Env) T() int { return e.r.cfg.T }

// Corrupt reports whether this party is corrupted.
func (e *Env) Corrupt() bool { return e.r.corrupt[e.id] }

// Run executes one synchronous protocol instance. It returns the cost
// report; the error aggregates honest-party failures and cutoff violations.
// Outputs of the protocol are returned through the behavior closures.
func Run(cfg Config, parties []Party) (*Report, error) {
	if cfg.N <= 0 || len(parties) != cfg.N {
		return nil, fmt.Errorf("sim: have %d behaviors for n=%d", len(parties), cfg.N)
	}
	if cfg.T < 0 || cfg.T >= cfg.N {
		return nil, fmt.Errorf("sim: invalid corruption budget t=%d for n=%d", cfg.T, cfg.N)
	}
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = DefaultMaxRounds
	}
	r := &runner{
		cfg:        cfg,
		corrupt:    make([]bool, cfg.N),
		active:     make([]bool, cfg.N),
		submitted:  make([]bool, cfg.N),
		pending:    make([][]Packet, cfg.N),
		pendingBuf: make([][]Packet, cfg.N),
		lastInbox:  make([][]Message, cfg.N),
		inboxCount: make([]int, cfg.N),
	}
	r.cond = sync.NewCond(&r.mu)
	r.report.BitsByTag = make(map[string]int64)
	r.report.RoundsByTag = make(map[string]int)
	r.report.BitsByParty = make([]int64, cfg.N)
	r.report.PartyErrors = make([]error, cfg.N)
	numCorrupt := 0
	for i, p := range parties {
		r.corrupt[i] = p.Corrupt
		if p.Corrupt {
			numCorrupt++
		}
		r.active[i] = true
	}
	r.activeTotal = cfg.N
	r.activeHonest = cfg.N - numCorrupt
	if r.activeHonest == 0 {
		return nil, errors.New("sim: no honest parties")
	}

	var wg sync.WaitGroup
	wg.Add(cfg.N)
	for i := range parties {
		go func(id PartyID, b Behavior) {
			defer wg.Done()
			env := &Env{r: r, id: id}
			err := runBehavior(b, env)
			r.done(id, err)
		}(PartyID(i), parties[i].Behavior)
	}
	wg.Wait()

	r.mu.Lock()
	defer r.mu.Unlock()
	var errs []error
	if r.failed != nil {
		errs = append(errs, r.failed)
	}
	for i, err := range r.report.PartyErrors {
		if err != nil && !r.corrupt[i] && !errors.Is(err, ErrSimOver) {
			errs = append(errs, fmt.Errorf("party %d: %w", i, err))
		}
	}
	rep := r.report
	rep.Rounds = r.round
	return &rep, errors.Join(errs...)
}

// runBehavior isolates a behavior's panic into an error so one buggy or
// byzantine strategy cannot take down the whole simulation.
func runBehavior(b Behavior, env *Env) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("sim: behavior panicked: %v", rec)
		}
	}()
	return b(env)
}

// Exchange submits this party's packets for the current round and blocks
// until the round closes, returning the packets delivered to this party,
// sorted by sender. Passing an empty slice is how a party participates in a
// round without sending.
func (e *Env) Exchange(out []Packet) ([]Message, error) {
	r := e.r
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.precheck(e.id); err != nil {
		return nil, err
	}
	// Validate destinations; a corrupt party sending out of range is simply
	// dropped rather than crashing the run, the packets it keeps copied into
	// a buffer reused across rounds. A round with nothing to drop — every
	// honest one — is held as the caller's own slice: Exchange returns only
	// once the round has closed and been delivered, or can never close, so
	// the slice is not read past the call.
	kept := out
	for _, p := range out {
		if p.To < 0 || p.To >= r.cfg.N {
			kept = slices.DeleteFunc(append(r.pendingBuf[e.id][:0], out...), func(p Packet) bool {
				return p.To < 0 || p.To >= r.cfg.N
			})
			r.pendingBuf[e.id] = kept
			break
		}
	}
	r.pending[e.id] = kept
	return r.finishSubmit(e.id)
}

// precheck validates that the party may submit the current round. Caller
// holds r.mu.
func (r *runner) precheck(id PartyID) error {
	if r.failed != nil {
		return r.failed
	}
	if !r.active[id] {
		return ErrSimOver
	}
	if r.activeHonest == 0 {
		// Only corrupt parties remain; the protocol instance is over.
		return ErrSimOver
	}
	if r.submitted[id] {
		return fmt.Errorf("sim: party %d submitted round %d twice", id, r.round)
	}
	return nil
}

// finishSubmit records the submission, closes the round if this was the
// last missing party, and blocks until the round's inbox is ready. Caller
// holds r.mu.
func (r *runner) finishSubmit(id PartyID) ([]Message, error) {
	r.submitted[id] = true
	r.submittedCount++
	if !r.corrupt[id] {
		r.honestPending++
	}
	myRound := r.round
	r.maybeFinishRound()
	for r.round == myRound && r.failed == nil && r.activeHonest > 0 {
		r.cond.Wait()
	}
	if r.failed != nil {
		return nil, r.failed
	}
	if r.round == myRound {
		// The last honest party finished while this (necessarily corrupt)
		// party was waiting; the round will never close.
		return nil, ErrSimOver
	}
	return r.lastInbox[id], nil
}

// PeekHonest implements the rushing adversary: it blocks until every active
// honest party has submitted the current round, then reveals their packets.
// Only corrupted parties may call it. The slice is valid until the caller's
// Exchange for the round; the payloads in it for the rest of the run (see
// Spied).
func (e *Env) PeekHonest() ([]Spied, error) {
	r := e.r
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.corrupt[e.id] {
		return nil, ErrNotCorrupt
	}
	for {
		if r.failed != nil {
			return nil, r.failed
		}
		if r.activeHonest == 0 {
			return nil, ErrSimOver
		}
		if r.honestPending == r.activeHonest && !r.submitted[e.id] {
			break
		}
		if r.submitted[e.id] {
			// Peeking after submitting this round would deadlock; treat it
			// as a strategy bug.
			return nil, fmt.Errorf("sim: party %d peeked after submitting round %d", e.id, r.round)
		}
		r.cond.Wait()
	}
	// Build the snapshot at most once per round; every peeker of this
	// round shares it read-only (see the Spied doc comment). Payloads are
	// copied into the append-only chunk, so a snapshot allocates only when
	// the chunk runs out however many parties peek, and a run of one
	// sender's packets on one payload slice — a broadcast, found by
	// identity as every Net finds it — is copied once and shared by the
	// run's entries.
	if !r.spiedValid {
		count, bytes := 0, 0
		for from := 0; from < r.cfg.N; from++ {
			if r.corrupt[from] || !r.submitted[from] {
				continue
			}
			sent := r.pending[from]
			count += len(sent)
			for i := range sent {
				if i == 0 || !transport.SamePayload(sent[i].Payload, sent[i-1].Payload) {
					bytes += len(sent[i].Payload)
				}
			}
		}
		spied := slices.Grow(r.spied[:0], count)
		flat := r.spyBytes
		if flat == nil || cap(flat)-len(flat) < bytes {
			flat = make([]byte, 0, max(bytes, spyChunk))
		}
		for from := 0; from < r.cfg.N; from++ {
			if r.corrupt[from] || !r.submitted[from] {
				continue
			}
			sent := r.pending[from]
			var payload []byte
			for i := range sent {
				if i == 0 || !transport.SamePayload(sent[i].Payload, sent[i-1].Payload) {
					off := len(flat)
					flat = append(flat, sent[i].Payload...)
					payload = flat[off:len(flat):len(flat)]
				}
				spied = append(spied, Spied{From: from, To: sent[i].To, Payload: payload})
			}
		}
		r.spied, r.spyBytes = spied, flat
		r.spiedValid = true
	}
	return r.spied, nil
}

// done retires a party. Called exactly once per party, after its behavior
// returns.
func (r *runner) done(id PartyID, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.report.PartyErrors[id] = err
	if !r.active[id] {
		return
	}
	r.active[id] = false
	r.activeTotal--
	if !r.corrupt[id] {
		r.activeHonest--
	}
	if r.submitted[id] {
		// Defensive: a behavior cannot return while blocked in Exchange, so
		// its submission flag should already be clear; reset it anyway.
		r.submitted[id] = false
		r.pending[id] = nil
		r.submittedCount--
		if !r.corrupt[id] {
			r.honestPending--
		}
	}
	r.maybeFinishRound()
	r.cond.Broadcast() // wake peekers whose honest set shrank, or end the sim
}

// maybeFinishRound closes the round if every active party has submitted.
// The check is O(1) via submittedCount; delivery itself is O(packets + n).
// Caller holds r.mu.
func (r *runner) maybeFinishRound() {
	if r.activeTotal == 0 || r.activeHonest == 0 {
		return
	}
	if r.submittedCount < r.activeTotal {
		if r.honestPending == r.activeHonest {
			r.cond.Broadcast() // honest wave complete: release peekers
		}
		return
	}
	// Deliver: group packets by recipient, ordered by sender. Iterating
	// senders in ascending order appends each recipient's messages already
	// sender-sorted — no per-inbox sort needed. A counting pass sizes the
	// runner's flat Message array, carved into per-recipient sub-slices.
	counts := r.inboxCount
	total := 0
	for from := 0; from < r.cfg.N; from++ {
		if !r.submitted[from] {
			continue
		}
		for i := range r.pending[from] {
			counts[r.pending[from][i].To]++
		}
		total += len(r.pending[from])
	}
	flat := slices.Grow(r.inboxFlat[:0], total)
	r.inboxFlat = flat
	inboxes := r.lastInbox
	off := 0
	for to := 0; to < r.cfg.N; to++ {
		inboxes[to] = flat[off : off : off+counts[to]]
		off += counts[to]
		counts[to] = 0
	}
	var stats RoundStats
	// Honest tag accounting is amortized over same-tag runs: a sender's
	// round is typically one broadcast under a single tag, so this turns
	// one map update per packet into one per sender per tag run. A run
	// counts its tag's round whatever its bits: an empty broadcast is sent
	// under its tag all the same.
	var runTag string
	var runBits int64
	runOpen := false
	// The distinct tags honest parties sent under this round: nearly always
	// one, the same for every sender.
	roundTags := r.roundTags[:0]
	noteTag := func(tag string) {
		if !slices.Contains(roundTags, tag) {
			roundTags = append(roundTags, tag)
		}
	}
	flushTagRun := func() {
		if runOpen {
			r.report.BitsByTag[runTag] += runBits
			noteTag(runTag)
			runBits = 0
		}
	}
	for from := 0; from < r.cfg.N; from++ {
		if !r.submitted[from] {
			continue
		}
		// The sender's packets to others and their bits, counted once into
		// the report below.
		honest := !r.corrupt[from]
		var msgs, bits int64
		for i := range r.pending[from] {
			p := &r.pending[from][i]
			if honest && (!runOpen || p.Tag != runTag) {
				flushTagRun()
				runTag, runOpen = p.Tag, true
			}
			if p.To != from {
				b := int64(8 * len(p.Payload))
				msgs++
				bits += b
				if honest {
					runBits += b
				}
			}
			inboxes[p.To] = append(inboxes[p.To], Message{From: from, Payload: p.Payload})
		}
		r.report.Messages += msgs
		stats.Messages += msgs
		if honest {
			r.report.HonestBits += bits
			r.report.BitsByParty[from] += bits
			stats.HonestBits += bits
		} else {
			r.report.CorruptBits += bits
			stats.CorruptBits += bits
		}
		r.pending[from] = nil
		r.submitted[from] = false
	}
	flushTagRun()
	for _, tag := range roundTags {
		r.report.RoundsByTag[tag]++
	}
	r.roundTags = roundTags
	if r.cfg.Timeline {
		stats.Round = r.round
		r.report.Timeline = append(r.report.Timeline, stats)
	}
	r.submittedCount = 0
	r.honestPending = 0
	r.spiedValid = false // next round's first peeker refills the snapshot
	r.round++
	if r.round > r.cfg.MaxRounds {
		r.failed = fmt.Errorf("%w: %d rounds", ErrCutoff, r.round)
	}
	r.cond.Broadcast()
}
