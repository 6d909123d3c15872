package sessmux_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"convexagreement/internal/ba"
	"convexagreement/internal/sessmux"
	"convexagreement/internal/sim"
	"convexagreement/internal/testutil"
	"convexagreement/internal/transport"
)

// TestParallelEcho runs k echo instances of different lengths through
// Parallel and checks isolation and round sharing. In the double-done case
// every instance also closes its own session before Parallel does: the
// second Close must be a no-op, or the live count drops below the
// instances still running and their rounds close early.
func TestParallelEcho(t *testing.T) {
	for _, tc := range []struct {
		name       string
		doubleDone bool
	}{
		{"run-retires", false},
		{"double-done", true},
	} {
		t.Run(tc.name, func(t *testing.T) { testParallelEcho(t, tc.doubleDone) })
	}
}

func testParallelEcho(t *testing.T, doubleDone bool) {
	const n, k = 4, 3
	lengths := []int{2, 5, 3} // virtual rounds per instance
	res, err := testutil.Run(sim.Config{N: n, T: 1}, nil,
		func(env *sim.Env) (int, error) {
			fns := make([]func(net transport.Net) error, k)
			for inst := range fns {
				fns[inst] = func(net transport.Net) error {
					if err := echoRounds(net, uint64(inst), lengths[inst]); err != nil {
						return err
					}
					if doubleDone {
						net.(*sessmux.Session).Close()
					}
					return nil
				}
			}
			return 1, sessmux.Parallel(env, fns)
		})
	if err != nil {
		t.Fatal(err)
	}
	// Physical rounds = max(lengths) = 5, not sum = 10.
	if res.Report.Rounds != 5 {
		t.Errorf("physical rounds = %d, want 5", res.Report.Rounds)
	}
}

// TestParallelBA runs n independent binary BA instances concurrently; each
// must satisfy validity independently.
func TestParallelBA(t *testing.T) {
	const n = 7
	tc := 2
	res, err := testutil.Run(sim.Config{N: n, T: tc}, nil,
		func(env *sim.Env) ([n]byte, error) {
			var outs [n]byte
			fns := make([]func(net transport.Net) error, n)
			for inst := range fns {
				fns[inst] = func(net transport.Net) error {
					// Instance i: all parties agree on bit i%2.
					out, err := ba.Binary(net, fmt.Sprintf("ba%d", inst), byte(inst%2))
					outs[inst] = out
					return err
				}
			}
			return outs, sessmux.Parallel(env, fns)
		})
	if err != nil {
		t.Fatal(err)
	}
	agreed, err := testutil.AgreeValue(res)
	if err != nil {
		t.Fatal(err)
	}
	for inst := 0; inst < n; inst++ {
		if agreed[inst] != byte(inst%2) {
			t.Errorf("instance %d output %d, want %d", inst, agreed[inst], inst%2)
		}
	}
	// All n BA instances shared rounds: total ≈ one BA's rounds, not n×.
	if res.Report.Rounds > ba.BinaryRounds(tc)+1 {
		t.Errorf("rounds = %d, want ≈ %d (parallel)", res.Report.Rounds, ba.BinaryRounds(tc))
	}
}

// TestInstanceErrorAbortsComposition: whichever instance fails, every
// sibling's next Exchange fails with an error wrapping ErrAborted, and
// Parallel reports both the cause and the aborts.
func TestInstanceErrorAbortsComposition(t *testing.T) {
	boom := errors.New("boom")
	const k = 3
	for failing := 0; failing < k; failing++ {
		_, err := testutil.Run(sim.Config{N: 2, T: 0}, nil,
			func(env *sim.Env) (int, error) {
				siblingErrs := make([]error, k)
				fns := make([]func(net transport.Net) error, k)
				for inst := range fns {
					fns[inst] = func(net transport.Net) error {
						if inst == failing {
							return boom
						}
						for {
							if _, err := transport.ExchangeNone(net); err != nil {
								siblingErrs[inst] = err
								return err
							}
						}
					}
				}
				err := sessmux.Parallel(env, fns)
				if !errors.Is(err, boom) || !errors.Is(err, sessmux.ErrAborted) {
					return 0, fmt.Errorf("Parallel = %v, want boom and ErrAborted", err)
				}
				for inst, serr := range siblingErrs {
					if inst != failing && !errors.Is(serr, sessmux.ErrAborted) {
						return 0, fmt.Errorf("instance %d saw %v, want ErrAborted", inst, serr)
					}
				}
				return 0, nil
			})
		if err != nil {
			t.Fatalf("instance %d failing: %v", failing, err)
		}
	}
}

// runParallelOnce drives k instances through Parallel over base for one
// virtual round each, returning every instance's inbox and the mux
// counters seen after the round.
func runParallelOnce(t *testing.T, base transport.Net, k int) ([][]transport.Message, sessmux.Stats) {
	t.Helper()
	boxes := make([][]transport.Message, k)
	stats := make([]sessmux.Stats, k)
	fns := make([]func(net transport.Net) error, k)
	for inst := range fns {
		fns[inst] = func(net transport.Net) error {
			in, err := net.Exchange(nil)
			boxes[inst] = in
			stats[inst] = sessmux.MuxStats(net.(*sessmux.Session))
			return err
		}
	}
	if err := sessmux.Parallel(base, fns); err != nil {
		t.Fatal(err)
	}
	return boxes, stats[0]
}

// TestParallelInboxBoundShedsFlood: a peer pumping past 64·n messages into
// one instance of a parallel composition is capped at the per-session
// bound; the honest senders' messages survive, the sibling instance is
// untouched, and the shed counter reports the loss. Flood-after-honest
// exercises the drop-incoming arm of the policy.
func TestParallelInboxBoundShedsFlood(t *testing.T) {
	const floodN = 1000
	var in []transport.Message
	for s := 0; s < 3; s++ { // honest senders 0..2: one message per instance
		in = append(in, transport.Message{From: transport.PartyID(s), Payload: frame(0, "honest")})
		in = append(in, transport.Message{From: transport.PartyID(s), Payload: frame(1, "honest")})
	}
	for i := 0; i < floodN; i++ { // sender 3 floods instance 0
		in = append(in, transport.Message{From: 3, Payload: frame(0, "flood")})
	}
	boxes, st := runParallelOnce(t, &stubNet{n: 4, in: in}, 2)

	if len(boxes[0]) != inboxBound {
		t.Fatalf("instance 0 inbox = %d messages, want bound %d", len(boxes[0]), inboxBound)
	}
	if honest := countHonest(boxes[0]); honest != 3 {
		t.Fatalf("flood displaced honest traffic: %d/3 honest messages survive", honest)
	}
	if len(boxes[1]) != 3 || countHonest(boxes[1]) != 3 {
		t.Fatalf("sibling instance disturbed: inbox %v, want the 3 honest messages", boxes[1])
	}
	if st.SessionShed != uint64(3+floodN-inboxBound) {
		t.Fatalf("SessionShed = %d, want %d", st.SessionShed, 3+floodN-inboxBound)
	}
}

// TestParallelShedDeterministic: under Parallel the shed policy is a pure
// function of delivery order — two identical runs keep byte-identical
// inboxes, which the replay-digest battery depends on.
func TestParallelShedDeterministic(t *testing.T) {
	build := func() [][]transport.Message {
		var in []transport.Message
		for i := 0; i < inboxBound+50; i++ {
			in = append(in, transport.Message{From: 2, Payload: frame(0, "flood")})
		}
		for s := 0; s < 4; s++ {
			in = append(in, transport.Message{From: transport.PartyID(s), Payload: frame(0, "h")})
		}
		boxes, _ := runParallelOnce(t, &stubNet{n: 4, in: in}, 2)
		return boxes
	}
	a, b := build(), build()
	if len(a[0]) != inboxBound {
		t.Fatalf("flooded inbox = %d messages, want bound %d: the shed never ran", len(a[0]), inboxBound)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("shed policy not deterministic:\n%v\n%v", a, b)
	}
}

// TestParallelValidation: a composition of no instances, and one over a
// base whose (n, t) no session may take, fail before any round is driven.
func TestParallelValidation(t *testing.T) {
	if err := sessmux.Parallel(nil, nil); err == nil {
		t.Error("zero instances accepted")
	}
	idle := func(transport.Net) error { return nil }
	err := sessmux.Parallel(newRecNet(3), []func(transport.Net) error{idle})
	if err == nil || !strings.Contains(err.Error(), "3t < n") {
		t.Errorf("Parallel over n=3, t=1 = %v, want the 3t < n refusal", err)
	}
}
