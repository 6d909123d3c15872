package channet_test

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"convexagreement/internal/channet"
	"convexagreement/internal/sim"
	"convexagreement/internal/transport"
)

// parkedInExchange waits until want goroutines wait for a round to close,
// and reports false if they do not within ten seconds.
func parkedInExchange(want int) bool {
	buf := make([]byte, 1<<20)
	for start := time.Now(); time.Since(start) < 10*time.Second; time.Sleep(time.Millisecond) {
		got := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "sync.(*Cond).Wait") && strings.Contains(g, "finishSubmit") {
				got++
			}
		}
		if got >= want {
			return true
		}
	}
	return false
}

// TestNoRoundAfterClose: once the hub is closed no round closes, not even
// when the parties that had submitted are released and scribble over the
// packets they submitted while the last party leaves, which completes the
// round's submissions among the parties still active.
func TestNoRoundAfterClose(t *testing.T) {
	const n = 3
	hub, err := channet.NewHub(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	conns := make([]*channet.Conn, n)
	for i := range conns {
		if conns[i], err = hub.Net(i); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for _, c := range conns { // round 0: everyone
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := transport.ExchangeAll(c, "r0", []byte{1}, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	// Round 1: parties 0 and 1 submit and wait; party 2 never submits.
	stop, released := make(chan struct{}), make(chan struct{}, 2)
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			payload := []byte{byte(i), 2, 3, 4}
			out := make([]transport.Packet, n)
			for to := range out {
				out[to] = transport.Packet{To: to, Tag: "r1", Payload: payload}
			}
			_, errs[i] = conns[i].Exchange(out)
			released <- struct{}{}
			for k := 0; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				payload[k%len(payload)]++
				out[k%n].To = n + k%n // out of range
			}
		}()
	}
	if !parkedInExchange(2) {
		t.Fatal("parties 0 and 1 did not park in Exchange")
	}
	hub.Close()
	<-released
	<-released
	// Parties 0 and 1 scribble while party 2 leaves: they are all that is
	// left, and both had submitted.
	conns[2].Leave()
	hub.Disconnect(2)
	close(stop)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, channet.ErrClosed) {
			t.Errorf("party %d: err = %v, want ErrClosed", i, err)
		}
	}
	conns[0].Leave()
	if _, err := conns[1].Exchange(nil); !errors.Is(err, channet.ErrClosed) {
		t.Errorf("Exchange after Close: err = %v, want ErrClosed", err)
	}
	conns[1].Leave()
	if got := channet.Rounds(hub); got != 1 {
		t.Fatalf("hub closed %d rounds, want 1: a round closed after Close", got)
	}
}

// TestNoRoundCutoff: a hub has no round cutoff; a long-lived cluster (a
// Session's many instances) runs past sim.DefaultMaxRounds.
func TestNoRoundCutoff(t *testing.T) {
	const n, rounds = 2, sim.DefaultMaxRounds + 1
	hub, err := channet.NewHub(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	fns := make([]func(transport.Net) error, n)
	for i := range fns {
		fns[i] = func(net transport.Net) error {
			for range rounds {
				if _, err := transport.ExchangeNone(net); err != nil {
					return err
				}
			}
			return nil
		}
	}
	if err := hub.Run(fns); err != nil {
		t.Fatal(err)
	}
	if got := channet.Rounds(hub); got != rounds {
		t.Fatalf("hub closed %d rounds, want %d", got, rounds)
	}
}
