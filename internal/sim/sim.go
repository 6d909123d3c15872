// Package sim implements the synchronous network model of Section 2 of the
// paper: n parties in a fully connected network of authenticated channels,
// lock-step rounds (every message sent in round r is delivered at the start
// of round r+1), and a rushing byzantine adversary controlling up to t
// parties. It is the one in-process round engine: the simulated runs (Run,
// Collect) and the in-process transport (package channet) both ride it.
//
// Every party — honest protocol code and adversarial strategy alike — runs
// sequential code against an *Env. A round closes once every still-active
// party has submitted its outgoing packets; the engine then delivers all
// packets and wakes the parties waiting in Exchange. Corrupted parties may
// call Env.PeekHonest to observe the honest packets of the current round
// before choosing their own (the rushing adversary).
//
// A run is driven by handles: Start begins it, Runner.Env hands out each
// party's *Env, Runner.Retire (or the party's own Env.Leave) retires a party,
// from inside its goroutine or from outside, and Runner.Close ends the run
// with an error. Run is that lifecycle with one goroutine per behavior. Three
// rules hold for every run:
//
//   - No round closes after Close. Every waiter and every later call gets
//     the close's error, and a party that got it may already be rewriting
//     the packets it had submitted.
//   - A run's rounds close while an honest party is active. A run without
//     corrupted parties (a channet hub) is thus live while any party is,
//     and its PeekHonest and honest wave never engage; given a MaxRounds
//     no run reaches, it has no cutoff.
//   - Only Run, which knows that every behavior has returned, gives the
//     payload arenas back to the pool; a run driven by hand leaves them to
//     the garbage collector.
//
// The two kinds of waiter wait apart, each woken once per round: a party in
// Exchange waits for its round to close, a peeker in PeekHonest for the
// round's honest wave (every active honest party submitted). The wave wait
// is woken by the honest submission or the honest retirement that
// completes the wave, and the round wait by the close; both are woken when
// the run fails (Close, the round cutoff) or its last honest party
// returns. A corrupt submission after the wave wakes no one: it changes no
// waiter's condition.
//
// A round allocates nothing in steady state. Each party's inbox is a slice
// the engine refills in place at every round close, as transport.Net's
// lifetime rule allows: a round closes only once every active party has
// called Exchange again. The round close also copies every payload, so a
// sender may rewrite its buffers once its Exchange returns, as over TCP:
// round r's copies go into the arena of r's parity, refilled when round r+2
// closes, when no party reads round r's inbox any more (a payload of it
// relayed in round r+1 is read out of the other). The rushing snapshot is
// likewise a slice refilled every round, valid until the peeker's own
// Exchange; only its payload copies are not rewritten during the run (see
// Spied).
//
// The engine also implements the paper's cost measures: BITS_ℓ(Π) — the
// total payload bits sent by honest parties — broken down by protocol tag,
// and ROUNDS_ℓ(Π) — the number of completed rounds. Self-addressed packets
// are delivered but not counted (a party "sending to itself" is free). The
// tags are static path segments, so the per-tag totals stay bounded however
// long a run lasts.
package sim

import (
	"errors"
	"fmt"
	"math/rand"
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
// packets (mutating them cannot corrupt deliveries) that are not rewritten
// before the run ends, so a strategy may keep a payload for the rest of
// the run; but one that writes to them would leak state to other peekers,
// so treat them as frozen.
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

// arenas is a run's pooled state: the payload copies of the even and the
// odd rounds' deliveries, the chunk the rushing snapshot's copies are
// carved from, append-only within the run, and each party's inbox and
// random source (Env.Rand). A run takes one from arenaPool when it starts
// and Run puts it back once every party has returned.
type arenas struct {
	round   [2][]byte
	spy     []byte
	inboxes [][]Message
	rngs    []*rand.Rand
}

var arenaPool = sync.Pool{New: func() any { return new(arenas) }}

// Errors surfaced to behaviors and callers.
var (
	ErrSimOver    = errors.New("sim: the run is over for this party (it retired or every honest party finished)")
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

// A Runner is one run of the engine (see the package doc for its
// lifecycle).
type Runner struct {
	cfg     Config
	corrupt []bool
	envs    []Env

	// The two waits on mu (see the package doc), embedded so that a run
	// allocates no cond object: Exchange waits on closed for its round to
	// close, PeekHonest on wave for the round's honest wave.
	mu     sync.Mutex
	closed sync.Cond
	wave   sync.Cond

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
	// tagTotals holds each honest tag's bits and rounds over the run, found
	// through tagIndex or, for the tag the last honest packet carried, as
	// lastTag; Report turns them into BitsByTag and RoundsByTag.
	tagTotals []tagCount
	tagIndex  map[string]int
	lastTag   int
	// arenas holds the inboxes, the delivered payloads' copies and the
	// snapshot's. Each inbox is refilled in place at every round close;
	// that is safe under transport.Net's lifetime rule: a round closes only
	// once every active party has called Exchange again.
	arenas *arenas
	// spied is the current round's rushing-adversary snapshot, refilled at
	// most once per round on first peek and shared read-only by all
	// peekers (see the Spied doc comment).
	spied      []Spied
	spiedValid bool
	failed     error // Close, the cutoff or an internal failure; broadcast to all

	report Report
}

// tagCount is one honest tag's totals over the run; last is the round
// after the last one counted in rounds.
type tagCount struct {
	tag    string
	bits   int64
	rounds int
	last   int
}

// Env is a party's handle to the network. Each Env is used by exactly one
// goroutine.
type Env struct {
	r  *Runner
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

// Leave retires this party (Runner.Retire with no error), so the remaining
// parties' rounds keep closing; its later Exchanges return ErrSimOver. Safe
// to call more than once.
func (e *Env) Leave() { e.r.Retire(e.id, nil) }

// Rand returns this party's random source, seeded with seed: its draws are
// those of rand.New(rand.NewSource(seed)). The source is the party's slot
// of the run's pooled arenas, so a strategy that draws builds no source
// per run; a second call reseeds the source the first returned.
func (e *Env) Rand(seed int64) *rand.Rand {
	rng := &e.r.arenas.rngs[e.id]
	if *rng == nil {
		*rng = rand.New(rand.NewSource(seed))
	} else {
		(*rng).Seed(seed)
	}
	return *rng
}

// Start begins a run of cfg.N parties, party i corrupted when corrupt[i]
// (a nil corrupt makes every party honest). Each party is then driven
// through its Runner.Env and retired with Runner.Retire or Env.Leave.
func Start(cfg Config, corrupt []bool) (*Runner, error) {
	if cfg.N <= 0 || (corrupt != nil && len(corrupt) != cfg.N) {
		return nil, fmt.Errorf("sim: invalid n=%d for %d corruption flags", cfg.N, len(corrupt))
	}
	if cfg.T < 0 || cfg.T >= cfg.N {
		return nil, fmt.Errorf("sim: invalid corruption budget t=%d for n=%d", cfg.T, cfg.N)
	}
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = DefaultMaxRounds
	}
	if corrupt == nil {
		corrupt = make([]bool, cfg.N)
	}
	numCorrupt := 0
	for _, c := range corrupt {
		if c {
			numCorrupt++
		}
	}
	if numCorrupt == cfg.N {
		return nil, errors.New("sim: no honest parties")
	}
	r := &Runner{
		cfg:          cfg,
		corrupt:      corrupt,
		envs:         make([]Env, cfg.N),
		active:       make([]bool, cfg.N),
		submitted:    make([]bool, cfg.N),
		pending:      make([][]Packet, cfg.N),
		pendingBuf:   make([][]Packet, cfg.N),
		activeTotal:  cfg.N,
		activeHonest: cfg.N - numCorrupt,
		tagIndex:     make(map[string]int),
		lastTag:      -1,
	}
	r.closed.L, r.wave.L = &r.mu, &r.mu
	r.report.BitsByParty = make([]int64, cfg.N)
	r.report.PartyErrors = make([]error, cfg.N)
	for i := range r.envs {
		r.envs[i] = Env{r: r, id: PartyID(i)}
		r.active[i] = true
	}
	r.arenas = arenaPool.Get().(*arenas)
	r.arenas.spy = r.arenas.spy[:0] // the last run's snapshot is over
	if k := cfg.N - len(r.arenas.rngs); k > 0 {
		r.arenas.rngs = append(r.arenas.rngs, make([]*rand.Rand, k)...)
		r.arenas.inboxes = append(r.arenas.inboxes, make([][]Message, k)...)
	}
	return r, nil
}

// Env returns party id's handle; every call for one id returns the same.
func (r *Runner) Env(id PartyID) *Env { return &r.envs[id] }

// Report returns the run's costs so far, Rounds being the rounds closed.
// Its slices are the run's own: read them once every party has retired.
func (r *Runner) Report() *Report {
	r.mu.Lock()
	defer r.mu.Unlock()
	rep := r.report
	rep.Rounds = r.round
	rep.BitsByTag = make(map[string]int64, len(r.tagTotals))
	rep.RoundsByTag = make(map[string]int, len(r.tagTotals))
	for _, t := range r.tagTotals {
		rep.BitsByTag[t.tag], rep.RoundsByTag[t.tag] = t.bits, t.rounds
	}
	return &rep
}

// Close ends the run with err: no round closes after it, every party
// waiting in Exchange or PeekHonest returns err, and so does every later
// call. A run that already failed keeps its first error.
func (r *Runner) Close(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fail(err)
}

// fail records the run's failure and wakes both waits. Caller holds r.mu.
func (r *Runner) fail(err error) {
	if r.failed == nil {
		r.failed = err
	}
	r.closed.Broadcast()
	r.wave.Broadcast()
}

// Run executes one synchronous protocol instance. It returns the cost
// report; the error aggregates honest-party failures and cutoff violations.
// Outputs of the protocol are returned through the behavior closures.
func Run(cfg Config, parties []Party) (*Report, error) {
	if cfg.N <= 0 || len(parties) != cfg.N {
		return nil, fmt.Errorf("sim: have %d behaviors for n=%d", len(parties), cfg.N)
	}
	corrupt := make([]bool, cfg.N)
	for i, p := range parties {
		corrupt[i] = p.Corrupt
	}
	r, err := Start(cfg, corrupt)
	if err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	wg.Add(cfg.N)
	for i := range parties {
		go func(env *Env, b Behavior) {
			defer wg.Done()
			r.Retire(env.id, runBehavior(b, env))
		}(r.Env(i), parties[i].Behavior)
	}
	wg.Wait()
	arenaPool.Put(r.arenas)

	rep := r.Report()
	var errs []error
	if r.failed != nil {
		errs = append(errs, r.failed)
	}
	for i, err := range rep.PartyErrors {
		if err != nil && !r.corrupt[i] && !errors.Is(err, ErrSimOver) {
			errs = append(errs, fmt.Errorf("party %d: %w", i, err))
		}
	}
	return rep, errors.Join(errs...)
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
func (r *Runner) precheck(id PartyID) error {
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
func (r *Runner) finishSubmit(id PartyID) ([]Message, error) {
	r.submitted[id] = true
	r.submittedCount++
	if !r.corrupt[id] {
		r.honestPending++
		if r.honestPending == r.activeHonest {
			r.wave.Broadcast() // honest wave complete: release peekers
		}
	}
	myRound := r.round
	r.maybeFinishRound()
	for r.round == myRound && r.failed == nil && r.activeHonest > 0 {
		r.closed.Wait()
	}
	if r.failed != nil {
		return nil, r.failed
	}
	if r.round == myRound {
		// The last honest party finished while this (necessarily corrupt)
		// party was waiting; the round will never close.
		return nil, ErrSimOver
	}
	return r.arenas.inboxes[id], nil
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
		r.wave.Wait()
	}
	// Build the snapshot at most once per round; every peeker of this
	// round shares it read-only (see the Spied doc comment). Payloads are
	// copied into the append-only chunk, so a snapshot allocates only when
	// the chunk runs out however many parties peek, and a broadcast is
	// copied once (transport.Copied).
	if !r.spiedValid {
		count, bytes := 0, 0
		for from := 0; from < r.cfg.N; from++ {
			if !r.corrupt[from] && r.submitted[from] {
				count += len(r.pending[from])
				bytes += transport.CopiedBytes(r.pending[from])
			}
		}
		spied := slices.Grow(r.spied[:0], count)
		flat := r.arenas.spy
		if cap(flat)-len(flat) < bytes {
			flat = make([]byte, 0, max(bytes, spyChunk))
		}
		for from := 0; from < r.cfg.N; from++ {
			if r.corrupt[from] || !r.submitted[from] {
				continue
			}
			sent := r.pending[from]
			var payload []byte
			for i := range sent {
				payload = transport.Copied(&flat, sent, i, payload)
				spied = append(spied, Spied{From: from, To: sent[i].To, Payload: payload})
			}
		}
		r.spied, r.arenas.spy = spied, flat
		r.spiedValid = true
	}
	return r.spied, nil
}

// Retire retires party id with the error it ended on, from its own
// goroutine or from another one: the remaining parties' rounds keep
// closing without it, and its own later calls return ErrSimOver. A party
// retired while it waits in Exchange gets the round's inbox when the round
// closes. Retiring a party again only replaces its recorded error.
func (r *Runner) Retire(id PartyID, err error) {
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
		// Retired from outside while in Exchange, or from inside after its
		// Exchange returned the run's failure: the submission is withdrawn.
		r.submitted[id] = false
		r.pending[id] = nil
		r.submittedCount--
		if !r.corrupt[id] {
			r.honestPending--
		}
	}
	switch {
	case r.activeHonest == 0:
		// The instance is over: release every waiter with ErrSimOver.
		r.closed.Broadcast()
		r.wave.Broadcast()
		return
	case !r.corrupt[id] && r.honestPending == r.activeHonest:
		r.wave.Broadcast() // the honest set shrank to the submitted ones
	}
	r.maybeFinishRound()
}

// countTags adds an honest sender's packets of the round to tagTotals:
// the bits to others under each run of one tag, and the round to each tag
// it has not been counted for yet (a tag counts its round whatever its
// bits: an empty broadcast is sent under its tag all the same). A sender's
// packets share one tag string, so the comparison with the packet before
// is a pointer-equal hit; the run's tag is compared with the tag the last
// run carried, which the senders of a round and the rounds of a step
// mostly share, and looked up only when it differs. Caller holds r.mu.
func (r *Runner) countTags(from PartyID, sent []Packet) {
	for i := 0; i < len(sent); {
		tag := sent[i].Tag
		var bits int64
		for ; i < len(sent) && sent[i].Tag == tag; i++ {
			if sent[i].To != from {
				bits += int64(8 * len(sent[i].Payload))
			}
		}
		k := r.lastTag
		if k < 0 || r.tagTotals[k].tag != tag {
			var ok bool
			if k, ok = r.tagIndex[tag]; !ok {
				k = len(r.tagTotals)
				r.tagTotals = append(r.tagTotals, tagCount{tag: tag})
				r.tagIndex[tag] = k
			}
			r.lastTag = k
		}
		t := &r.tagTotals[k]
		t.bits += bits
		if t.last <= r.round {
			t.rounds++
			t.last = r.round + 1
		}
	}
}

// maybeFinishRound closes the round if every active party has submitted and
// the run has not failed (a party released by a failure may already be
// rewriting the packets it submitted). The check is O(1) via
// submittedCount; delivery itself is O(packets + n). Caller holds r.mu.
func (r *Runner) maybeFinishRound() {
	if r.failed != nil || r.activeTotal == 0 || r.activeHonest == 0 {
		return
	}
	if r.submittedCount < r.activeTotal {
		return
	}
	// Deliver: group packets by recipient, ordered by sender. Iterating
	// senders in ascending order appends each recipient's messages already
	// sender-sorted — no per-inbox sort needed. Each inbox is refilled in
	// place. The payload copies go into the arena of this round's parity
	// (see the package doc); one that grows leaves its earlier copies where
	// they are.
	inboxes := r.arenas.inboxes[:r.cfg.N]
	for to := range inboxes {
		inboxes[to] = inboxes[to][:0]
	}
	copies := r.arenas.round[r.round%2][:0]
	// The round's counts collect here and reach the report once; the
	// honest tags are counted apart from the delivery loop, which then
	// calls nothing.
	var stats RoundStats
	for from := 0; from < r.cfg.N; from++ {
		if !r.submitted[from] {
			continue
		}
		sent := r.pending[from]
		var bits int64 // the sender's bits to others
		var payload []byte
		for i := range sent {
			p := &sent[i]
			payload = transport.Copied(&copies, sent, i, payload)
			if p.To != from {
				stats.Messages++
				bits += int64(8 * len(p.Payload))
			}
			inboxes[p.To] = append(inboxes[p.To], Message{From: from, Payload: payload})
		}
		if r.corrupt[from] {
			stats.CorruptBits += bits
		} else {
			r.countTags(from, sent)
			r.report.BitsByParty[from] += bits
			stats.HonestBits += bits
		}
		r.pending[from] = nil
		r.submitted[from] = false
	}
	r.report.Messages += stats.Messages
	r.report.HonestBits += stats.HonestBits
	r.report.CorruptBits += stats.CorruptBits
	r.arenas.round[r.round%2] = copies
	if r.cfg.Timeline {
		stats.Round = r.round
		r.report.Timeline = append(r.report.Timeline, stats)
	}
	r.submittedCount = 0
	r.honestPending = 0
	r.spiedValid = false // next round's first peeker refills the snapshot
	r.round++
	if r.round > r.cfg.MaxRounds {
		r.fail(fmt.Errorf("%w: %d rounds", ErrCutoff, r.round))
		return
	}
	r.closed.Broadcast()
}
