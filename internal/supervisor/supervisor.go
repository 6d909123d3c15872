// Package supervisor runs a party function under a watchdog: per-round
// deadlines derived from the synchronous delay bound Δ, stall detection
// (no round progress within StallRounds·Δ), and restart-from-checkpoint
// with capped exponential backoff and a restart budget.
//
// The supervisor owns none of the protocol state — the party function is
// expected to recover its own state (typically via a checkpointed Session)
// on each attempt. The supervisor's job is only to decide WHEN to run it
// again and when to give up:
//
//	          ┌────────── backoff ──────────┐
//	          ▼                             │
//	idle ─▶ running ──error──▶ triage ──restart budget left──┘
//	          │                  │
//	          │ stall            ├── live peers < n−t ─▶ ErrQuorumLost
//	          ▼                  ├── storage lost ─▶ ErrStorageLost
//	     abort + ErrStalled      └── budget exhausted ─▶ ErrRestartsExhausted
//
// Degradation is graceful by design: a party that cannot possibly make
// progress (quorum lost) or recover (checkpoint storage lost) fails fast
// with a structured health report instead of burning its restart budget
// against a dead mesh or a dead disk; a party whose storage merely
// DEGRADED keeps running with checkpointing disabled and the condition
// surfaced in Health.Storage.
package supervisor

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"convexagreement/internal/checkpoint"
)

// Typed failures surfaced by Run. Use errors.Is; the concrete error is a
// *HealthError carrying the final Health snapshot.
var (
	// ErrStalled means the party made no round progress for
	// StallRounds·Δ and did not return even after being aborted.
	ErrStalled = errors.New("supervisor: party stalled")
	// ErrQuorumLost means fewer than n−t peers were live when the party
	// failed, so no restart can make progress.
	ErrQuorumLost = errors.New("supervisor: quorum lost")
	// ErrRestartsExhausted means the restart budget ran out.
	ErrRestartsExhausted = errors.New("supervisor: restart budget exhausted")
	// ErrStorageLost means the party failed while its checkpoint storage
	// was reported lost (checkpoint.ErrStorageLost): no restart can
	// recover state from a dead disk, so the budget is not burned against
	// it. Degraded storage (checkpoint.ErrStorageDegraded) is NOT
	// terminal — the party keeps running without recovery and the
	// condition is surfaced in Health.Storage.
	ErrStorageLost = errors.New("supervisor: checkpoint storage lost")
)

// Config bounds the watchdog. Zero values take the documented defaults.
type Config struct {
	// Delta is the synchronous round bound the deployment runs under;
	// the watchdog polls progress at this period. Required.
	Delta time.Duration
	// StallRounds is how many Δ may pass with no round progress before
	// the party is declared stalled and aborted. Default 8.
	StallRounds int
	// MaxRestarts is the restart budget: the party runs at most
	// MaxRestarts+1 times. Default 3.
	MaxRestarts int
	// BackoffBase is the first restart delay; it doubles per consecutive
	// restart, capped at BackoffMax. Defaults 50ms / 2s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// N and T describe the mesh for the quorum check. A party reporting
	// fewer than N−T live peers (itself included) on failure gets
	// ErrQuorumLost instead of a restart. N = 0 disables the check.
	N, T int
}

func (c Config) withDefaults() Config {
	if c.StallRounds == 0 {
		c.StallRounds = 8
	}
	if c.MaxRestarts == 0 {
		c.MaxRestarts = 3
	}
	if c.BackoffBase == 0 {
		c.BackoffBase = 50 * time.Millisecond
	}
	if c.BackoffMax == 0 {
		c.BackoffMax = 2 * time.Second
	}
	return c
}

// Health is the supervisor's structured report of a run: attached to every
// terminal error (via *HealthError) and returned alongside success.
type Health struct {
	// Attempts is how many times the party function ran.
	Attempts int
	// Stalls is how many attempts ended in a detected stall.
	Stalls int
	// LastRound is the party's final progress-counter value.
	LastRound uint64
	// LivePeers is the party's last reported live-peer count (own party
	// included); -1 if never reported.
	LivePeers int
	// Demotions is the party's last reported ingress-demotion tally, keyed
	// by structured reason (e.g. "rate", "budget", "stall"); nil if never
	// reported. A party demoting peers for rate or budget is under active
	// resource attack — the overload signal an operator reads first when a
	// run degrades.
	Demotions map[string]int
	// Storage is the party's last reported checkpoint-storage condition:
	// nil while healthy, an error wrapping checkpoint.ErrStorageDegraded
	// when the party is running with impaired or disabled checkpointing
	// (liveness preserved, crash recovery forfeited), or one wrapping
	// checkpoint.ErrStorageLost when the state directory is unusable.
	Storage error
	// LastErr is the error that ended the final attempt, nil on success.
	LastErr error
}

func (h Health) String() string {
	last := "<nil>"
	if h.LastErr != nil {
		last = h.LastErr.Error()
	}
	s := fmt.Sprintf("attempts=%d stalls=%d last_round=%d live_peers=%d",
		h.Attempts, h.Stalls, h.LastRound, h.LivePeers)
	if len(h.Demotions) > 0 {
		reasons := make([]string, 0, len(h.Demotions))
		for r := range h.Demotions {
			reasons = append(reasons, r)
		}
		sort.Strings(reasons)
		s += " demotions="
		for i, r := range reasons {
			if i > 0 {
				s += ","
			}
			s += fmt.Sprintf("%s:%d", r, h.Demotions[r])
		}
	}
	if h.Storage != nil {
		s += " storage=" + storageWord(h.Storage)
	}
	return s + " last_err=" + last
}

// storageWord compresses a storage condition into the one word an
// operator greps for.
func storageWord(err error) string {
	switch {
	case errors.Is(err, checkpoint.ErrStorageLost):
		return "lost"
	case errors.Is(err, checkpoint.ErrStorageDegraded):
		return "degraded"
	default:
		return "error"
	}
}

// HealthError is a terminal supervisor error with the final Health report.
type HealthError struct {
	Health Health
	base   error
}

func (e *HealthError) Error() string { return fmt.Sprintf("%v (%s)", e.base, e.Health) }
func (e *HealthError) Unwrap() error { return e.base }

// Attempt is the context handed to each run of the party function. The
// party wires its probes in before doing network work; all methods are
// safe for concurrent use with the watchdog.
type Attempt struct {
	// Number of this attempt, starting at 0.
	Number int

	mu        sync.Mutex
	progress  func() uint64 // round counter probe
	abort     func()        // tears the party's transport down on stall
	live      int
	demotions map[string]int
	storage   error
}

// Progress registers the round-counter probe the watchdog polls; the party
// is considered live as long as the value keeps increasing. Typically
// (*Session).Rounds.
func (a *Attempt) Progress(probe func() uint64) {
	a.mu.Lock()
	a.progress = probe
	a.mu.Unlock()
}

// AbortOnStall registers the abort hook the watchdog fires when the party
// stalls — typically the transport's Close, which fails the pending
// Exchange and unblocks the party function.
func (a *Attempt) AbortOnStall(abort func()) {
	a.mu.Lock()
	a.abort = abort
	a.mu.Unlock()
}

// ReportPeers records the current live-peer count (own party included) for
// the quorum check, e.g. n − len(tr.Faulty()).
func (a *Attempt) ReportPeers(live int) {
	a.mu.Lock()
	a.live = live
	a.mu.Unlock()
}

// ReportDemotions records this party's cumulative ingress-demotion tally,
// keyed by structured reason — typically built from tcpnet's
// Stats().Demotions. The latest report is surfaced in Health as the
// overload signal: demotions for "rate" or "budget" mean the mesh is under
// active resource attack, which reframes any accompanying stall or quorum
// failure. The map is copied; callers may reuse theirs.
func (a *Attempt) ReportDemotions(byReason map[string]int) {
	copied := make(map[string]int, len(byReason))
	for r, c := range byReason {
		copied[r] = c
	}
	a.mu.Lock()
	a.demotions = copied
	a.mu.Unlock()
}

// ReportStorage records the party's checkpoint-storage condition —
// typically (*Session).StorageErr() — for Health and the fail-fast
// triage: a party that fails while reporting checkpoint.ErrStorageLost
// gets ErrStorageLost instead of a futile restart; a degraded report
// only annotates Health (degrade-and-continue is the party's policy, the
// supervisor just makes it visible).
func (a *Attempt) ReportStorage(err error) {
	a.mu.Lock()
	a.storage = err
	a.mu.Unlock()
}

func (a *Attempt) storageReport() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.storage
}

func (a *Attempt) snapshot() (func() uint64, func(), int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.progress, a.abort, a.live
}

func (a *Attempt) demotionReport() map[string]int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.demotions
}

// Run drives party under the watchdog until it succeeds, the restart
// budget is exhausted, quorum is lost, or an aborted stall fails to
// unwind. The returned Health describes the whole run in either case.
func Run(cfg Config, party func(*Attempt) error) (Health, error) {
	cfg = cfg.withDefaults()
	if cfg.Delta <= 0 {
		return Health{}, fmt.Errorf("supervisor: Config.Delta required")
	}
	health := Health{LivePeers: -1}
	backoff := cfg.BackoffBase
	for attempt := 0; ; attempt++ {
		health.Attempts = attempt + 1
		a := &Attempt{Number: attempt, live: -1}
		err, stalled := watch(cfg, a, party)
		_, _, live := a.snapshot()
		if live >= 0 {
			health.LivePeers = live
		}
		if probe, _, _ := a.snapshot(); probe != nil {
			health.LastRound = probe()
		}
		if d := a.demotionReport(); d != nil {
			health.Demotions = d
		}
		if serr := a.storageReport(); serr != nil {
			health.Storage = serr
		}
		health.LastErr = err
		if stalled {
			health.Stalls++
			if err == nil {
				// Abort did not unwind the party; it leaks, report it.
				return health, &HealthError{Health: health, base: ErrStalled}
			}
			err = fmt.Errorf("%w: %v", ErrStalled, err)
			health.LastErr = err
		}
		if err == nil {
			return health, nil
		}
		if cfg.N > 0 && live >= 0 && live < cfg.N-cfg.T {
			return health, &HealthError{Health: health, base: ErrQuorumLost}
		}
		// A party that died with its checkpoint storage LOST cannot be
		// restarted into recovery — the state directory itself is gone.
		// Fail fast with the typed cause instead of burning the budget.
		if errors.Is(err, checkpoint.ErrStorageLost) || errors.Is(health.Storage, checkpoint.ErrStorageLost) {
			return health, &HealthError{Health: health, base: ErrStorageLost}
		}
		if attempt >= cfg.MaxRestarts {
			return health, &HealthError{Health: health, base: ErrRestartsExhausted}
		}
		time.Sleep(backoff)
		backoff *= 2
		if backoff > cfg.BackoffMax {
			backoff = cfg.BackoffMax
		}
	}
}

// watch runs one attempt with the stall watchdog and reports (party error,
// stall detected). If an aborted party never returns within a second
// stall window its goroutine is abandoned (documented leak) and watch
// returns (nil, true).
func watch(cfg Config, a *Attempt, party func(*Attempt) error) (error, bool) {
	done := make(chan error, 1)
	go func() { done <- party(a) }()

	window := time.Duration(cfg.StallRounds) * cfg.Delta
	ticker := time.NewTicker(cfg.Delta)
	defer ticker.Stop()

	var lastRound uint64
	lastProgress := time.Now()
	stalled := false
	abortedAt := time.Time{}
	for {
		select {
		case err := <-done:
			return err, stalled
		case now := <-ticker.C:
			// A nil probe means the party is still setting up; setup time
			// counts against the stall window too (a hung dial is a stall).
			probe, abort, _ := a.snapshot()
			if probe != nil {
				if r := probe(); r != lastRound {
					lastRound = r
					lastProgress = now
					continue
				}
			}
			if !stalled && now.Sub(lastProgress) >= window {
				stalled = true
				abortedAt = now
				if abort != nil {
					abort()
				}
			} else if stalled && now.Sub(abortedAt) >= window {
				// Abort didn't unblock the party; give up on the goroutine.
				return nil, true
			}
		}
	}
}
