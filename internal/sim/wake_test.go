package sim

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"convexagreement/internal/transport"
)

// The wake-path tests: each parks a party in one of the runner's two waits,
// then makes the one event that must wake it. A lost wakeup fails at
// wakeDeadline instead of hanging the test binary.

const wakeDeadline = 10 * time.Second

// runBounded runs parties and fails the test if the run is still going at
// wakeDeadline.
func runBounded(t *testing.T, cfg Config, parties []Party) (*Report, error) {
	t.Helper()
	type result struct {
		rep *Report
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := Run(cfg, parties)
		done <- result{rep, err}
	}()
	select {
	case res := <-done:
		return res.rep, res.err
	case <-time.After(wakeDeadline):
		t.Fatalf("run still going after %v: a waiter was never woken", wakeDeadline)
		return nil, nil
	}
}

// parked waits until want goroutines are parked in a sync.Cond wait under
// fn (a function name as the runtime prints it in a stack trace), and
// reports false if they are not by wakeDeadline.
func parked(fn string, want int) bool {
	buf := make([]byte, 1<<20)
	for start := time.Now(); time.Since(start) < wakeDeadline; time.Sleep(time.Millisecond) {
		got := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "sync.(*Cond).Wait") && strings.Contains(g, fn) {
				got++
			}
		}
		if got >= want {
			return true
		}
	}
	return false
}

// releaseWhenParked closes release once, for each fn in order, want[i]
// goroutines are parked under fn[i].
func releaseWhenParked(t *testing.T, release chan struct{}, fn []string, want []int) {
	go func() {
		for i := range fn {
			if !parked(fn[i], want[i]) {
				t.Errorf("fewer than %d goroutines parked in %s after %v", want[i], fn[i], wakeDeadline)
			}
		}
		close(release)
	}()
}

const (
	inPeek     = "(*Env).PeekHonest"
	inExchange = "(*runner).finishSubmit"
)

// TestPeekerWokenByLastHonestSubmission: a peeker waits for the honest wave
// and gets it when the last honest party submits.
func TestPeekerWokenByLastHonestSubmission(t *testing.T) {
	const n = 4
	release := make(chan struct{})
	parties := make([]Party, n)
	for i := range n - 1 {
		parties[i] = Party{Behavior: func(env *Env) error {
			<-release
			_, err := transport.ExchangeAll(env, "x", []byte{1}, nil)
			return err
		}}
	}
	var seen int
	parties[n-1] = Party{Corrupt: true, Behavior: func(env *Env) error {
		spied, err := env.PeekHonest()
		if err != nil {
			return err
		}
		seen = len(spied)
		_, err = env.Exchange(nil)
		return err
	}}
	releaseWhenParked(t, release, []string{inPeek}, []int{1})
	if _, err := runBounded(t, Config{N: n, T: 1}, parties); err != nil {
		t.Fatal(err)
	}
	if seen != (n-1)*n {
		t.Fatalf("peeker saw %d packets, want %d", seen, (n-1)*n)
	}
}

// TestPeekerWokenWhenLastHonestReturns: a peeker waits for a wave no honest
// party will send; when the last honest party returns, it gets ErrSimOver.
func TestPeekerWokenWhenLastHonestReturns(t *testing.T) {
	const n = 4
	release := make(chan struct{})
	parties := make([]Party, n)
	for i := range n - 1 {
		parties[i] = Party{Behavior: func(*Env) error {
			<-release
			return nil
		}}
	}
	var peekErr error
	parties[n-1] = Party{Corrupt: true, Behavior: func(env *Env) error {
		_, peekErr = env.PeekHonest()
		return peekErr
	}}
	releaseWhenParked(t, release, []string{inPeek}, []int{1})
	if _, err := runBounded(t, Config{N: n, T: 1}, parties); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(peekErr, ErrSimOver) {
		t.Fatalf("peek error = %v, want ErrSimOver", peekErr)
	}
}

// TestPeekerWokenByHonestRetirement: two honest parties have submitted and
// the third returns without sending. The retirement completes the wave, so
// the waiting peeker gets the two senders' packets, and its own submission
// then closes the round.
func TestPeekerWokenByHonestRetirement(t *testing.T) {
	const n = 4
	release := make(chan struct{})
	parties := make([]Party, n)
	for i := range 2 {
		parties[i] = Party{Behavior: func(env *Env) error {
			_, err := transport.ExchangeAll(env, "x", []byte{byte(env.ID())}, nil)
			return err
		}}
	}
	parties[2] = Party{Behavior: func(*Env) error {
		<-release
		return nil
	}}
	var seen int
	parties[n-1] = Party{Corrupt: true, Behavior: func(env *Env) error {
		spied, err := env.PeekHonest()
		if err != nil {
			return err
		}
		seen = len(spied)
		_, err = env.Exchange(nil)
		return err
	}}
	releaseWhenParked(t, release, []string{inExchange, inPeek}, []int{2, 1})
	rep, err := runBounded(t, Config{N: n, T: 1}, parties)
	if err != nil {
		t.Fatal(err)
	}
	if seen != 2*n || rep.Rounds != 1 {
		t.Fatalf("peeker saw %d packets in a run of %d rounds, want %d in 1", seen, rep.Rounds, 2*n)
	}
}

// TestPeekerGetsCutoff: the round a peeker waits on closes past MaxRounds,
// and the peeker gets ErrCutoff, not the "peeked after submitting" error.
// In a run a peeker's own missing submission keeps its round open; the test
// submits the corrupt party's round from a second goroutine to end the run
// with a peek still waiting.
func TestPeekerGetsCutoff(t *testing.T) {
	const n = 4
	release := make(chan struct{})
	parties := make([]Party, n)
	for i := range n - 1 {
		parties[i] = Party{Behavior: func(env *Env) error {
			if _, err := transport.ExchangeAll(env, "x", []byte{1}, nil); err != nil {
				return err
			}
			<-release
			_, err := transport.ExchangeAll(env, "x", []byte{2}, nil)
			return err
		}}
	}
	peekErr := make(chan error, 1)
	parties[n-1] = Party{Corrupt: true, Behavior: func(env *Env) error {
		if _, err := env.Exchange(nil); err != nil {
			return err
		}
		go func() {
			_, err := env.PeekHonest()
			peekErr <- err
		}()
		if !parked(inPeek, 1) {
			t.Errorf("the peek is not parked after %v", wakeDeadline)
		}
		close(release)
		_, err := env.Exchange(nil)
		return err
	}}
	_, err := runBounded(t, Config{N: n, T: 1, MaxRounds: 1}, parties)
	if !errors.Is(err, ErrCutoff) {
		t.Fatalf("run error = %v, want ErrCutoff", err)
	}
	select {
	case err := <-peekErr:
		if !errors.Is(err, ErrCutoff) {
			t.Fatalf("peek error = %v, want ErrCutoff", err)
		}
	case <-time.After(wakeDeadline):
		t.Fatalf("peeker still waiting %v after the cutoff", wakeDeadline)
	}
}

// TestExchangeWokenByCorruptRetirement: every honest party waits in
// Exchange for a round the corrupt party never submits; its return closes
// the round and releases them.
func TestExchangeWokenByCorruptRetirement(t *testing.T) {
	const n = 4
	release := make(chan struct{})
	parties := make([]Party, n)
	for i := range n - 1 {
		parties[i] = Party{Behavior: func(env *Env) error {
			in, err := transport.ExchangeAll(env, "x", []byte{1}, nil)
			if err == nil && len(in) != n-1 {
				t.Errorf("party %d received %d messages, want %d", env.ID(), len(in), n-1)
			}
			return err
		}}
	}
	parties[n-1] = Party{Corrupt: true, Behavior: func(*Env) error {
		<-release
		return nil
	}}
	releaseWhenParked(t, release, []string{inExchange}, []int{n - 1})
	rep, err := runBounded(t, Config{N: n, T: 1}, parties)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1", rep.Rounds)
	}
}
