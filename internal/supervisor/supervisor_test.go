package supervisor

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func fastCfg() Config {
	return Config{
		Delta:       2 * time.Millisecond,
		StallRounds: 4,
		MaxRestarts: 3,
		BackoffBase: time.Millisecond,
		BackoffMax:  4 * time.Millisecond,
	}
}

func TestRunSucceedsFirstTry(t *testing.T) {
	h, err := Run(fastCfg(), func(a *Attempt) error {
		var r atomic.Uint64
		a.Progress(r.Load)
		r.Store(17)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if h.Attempts != 1 || h.Stalls != 0 || h.LastRound != 17 {
		t.Errorf("health = %+v", h)
	}
}

func TestRunRestartsAfterError(t *testing.T) {
	fails := 2
	h, err := Run(fastCfg(), func(a *Attempt) error {
		if a.Number < fails {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if h.Attempts != fails+1 {
		t.Errorf("attempts = %d, want %d", h.Attempts, fails+1)
	}
}

func TestRunExhaustsBudget(t *testing.T) {
	boom := errors.New("boom")
	h, err := Run(fastCfg(), func(a *Attempt) error { return boom })
	if !errors.Is(err, ErrRestartsExhausted) {
		t.Fatalf("err = %v, want ErrRestartsExhausted", err)
	}
	if h.Attempts != 4 { // MaxRestarts=3 → 4 runs
		t.Errorf("attempts = %d, want 4", h.Attempts)
	}
	var he *HealthError
	if !errors.As(err, &he) || !errors.Is(he.Health.LastErr, boom) {
		t.Errorf("health error = %v", err)
	}
}

func TestRunDetectsStallAndAborts(t *testing.T) {
	before := runtime.NumGoroutine()
	aborted := make(chan struct{})
	h, err := Run(fastCfg(), func(a *Attempt) error {
		if a.Number > 0 {
			return nil // recovered on restart
		}
		var r atomic.Uint64
		a.Progress(r.Load)
		a.AbortOnStall(func() { close(aborted) })
		<-aborted // stall until the watchdog fires the abort
		return errors.New("transport closed")
	})
	if err != nil {
		t.Fatal(err)
	}
	if h.Stalls != 1 || h.Attempts != 2 {
		t.Errorf("health = %+v", h)
	}
	// An aborted attempt that unwinds leaves nothing behind: the party
	// goroutine of each attempt has returned by the time Run does (the
	// one documented exception, a party that ignores its abort, is the
	// next test's).
	deadline := time.After(5 * time.Second)
	for runtime.NumGoroutine() > before {
		select {
		case <-deadline:
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines 5s after Run returned, %d before\n%s", runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func TestRunStalledPartyNeverReturns(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	_, err := Run(fastCfg(), func(a *Attempt) error {
		a.AbortOnStall(func() {}) // abort is a no-op; the party hangs
		<-release
		return nil
	})
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
}

func TestRunQuorumLost(t *testing.T) {
	cfg := fastCfg()
	cfg.N, cfg.T = 7, 2
	h, err := Run(cfg, func(a *Attempt) error {
		a.ReportPeers(4) // < n-t = 5
		return errors.New("peers gone")
	})
	if !errors.Is(err, ErrQuorumLost) {
		t.Fatalf("err = %v, want ErrQuorumLost", err)
	}
	if h.Attempts != 1 {
		t.Errorf("attempts = %d, want 1 (no restart against a dead mesh)", h.Attempts)
	}
	if h.LivePeers != 4 {
		t.Errorf("live peers = %d", h.LivePeers)
	}
}

func TestRunQuorumHeldRestarts(t *testing.T) {
	cfg := fastCfg()
	cfg.N, cfg.T = 7, 2
	h, err := Run(cfg, func(a *Attempt) error {
		a.ReportPeers(5) // exactly n-t: quorum holds
		if a.Number == 0 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if h.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", h.Attempts)
	}
}

func TestRunRequiresDelta(t *testing.T) {
	if _, err := Run(Config{}, func(a *Attempt) error { return nil }); err == nil {
		t.Fatal("want error for missing Delta")
	}
}

func TestProgressKeepsPartyAlive(t *testing.T) {
	// A party that keeps advancing its round counter must not be declared
	// stalled even when one round takes longer than Δ.
	cfg := fastCfg()
	var r atomic.Uint64
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			case <-time.After(cfg.Delta):
				r.Add(1)
			}
		}
	}()
	defer close(stop)
	h, err := Run(cfg, func(a *Attempt) error {
		a.Progress(r.Load)
		a.AbortOnStall(func() { t.Error("abort fired for a live party") })
		time.Sleep(time.Duration(cfg.StallRounds*3) * cfg.Delta)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if h.Stalls != 0 {
		t.Errorf("stalls = %d, want 0", h.Stalls)
	}
}

func TestReportDemotionsSurfaced(t *testing.T) {
	reported := map[string]int{"rate": 2, "budget": 1}
	h, err := Run(fastCfg(), func(a *Attempt) error {
		a.ReportDemotions(reported)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if h.Demotions["rate"] != 2 || h.Demotions["budget"] != 1 {
		t.Fatalf("Demotions = %v, want rate:2 budget:1", h.Demotions)
	}
	// The report is a copy: caller mutations after the fact must not leak in.
	reported["rate"] = 99
	if h.Demotions["rate"] != 2 {
		t.Fatal("ReportDemotions aliases the caller's map")
	}
	// The overload tally renders deterministically (sorted by reason).
	if want := "demotions=budget:1,rate:2"; !strings.Contains(h.String(), want) {
		t.Fatalf("Health.String() = %q, want it to contain %q", h.String(), want)
	}
}

func TestReportDemotionsKeptFromFailedAttempt(t *testing.T) {
	// A party that dies mid-attack still leaves its overload signal in the
	// terminal health report.
	var runs atomic.Int32
	_, err := Run(Config{
		Delta:       2 * time.Millisecond,
		StallRounds: 4,
		MaxRestarts: 1,
		BackoffBase: time.Millisecond,
		BackoffMax:  2 * time.Millisecond,
	}, func(a *Attempt) error {
		if runs.Add(1) == 1 {
			a.ReportDemotions(map[string]int{"stall": 1})
		}
		return errors.New("boom")
	})
	var he *HealthError
	if !errors.As(err, &he) {
		t.Fatalf("want *HealthError, got %v", err)
	}
	if he.Health.Demotions["stall"] != 1 {
		t.Fatalf("Demotions = %v, want stall:1 carried across attempts", he.Health.Demotions)
	}
}

// TestAttemptHealthInProgress: during an attempt, Attempt.Health is the
// line Run would return if the run ended now — the stall the first attempt
// ended in, this attempt's number, and what it has reported so far.
func TestAttemptHealthInProgress(t *testing.T) {
	var during Health
	_, err := Run(fastCfg(), func(a *Attempt) error {
		var r atomic.Uint64
		a.Progress(r.Load)
		if a.Number == 0 {
			aborted := make(chan struct{})
			a.AbortOnStall(func() { close(aborted) })
			<-aborted
			return errors.New("transport closed")
		}
		r.Store(9)
		a.ReportPeers(3)
		a.ReportDemotions(map[string]int{"rate": 2})
		during = a.Health()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := "attempts=2 stalls=1 last_round=9 live_peers=3 demotions=rate:2 last_err=<nil>"
	if got := during.String(); got != want {
		t.Errorf("Health during the second attempt = %q, want %q", got, want)
	}
}
