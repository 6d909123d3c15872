package sessmux_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"convexagreement/internal/sessmux"
	"convexagreement/internal/sim"
	"convexagreement/internal/testutil"
	"convexagreement/internal/transport"
)

// echoRounds runs `rounds` broadcast-echo virtual rounds over net and
// checks each round delivers exactly one correctly-labelled message per
// participant.
func echoRounds(net transport.Net, sid uint64, rounds int) error {
	for r := 0; r < rounds; r++ {
		payload := fmt.Sprintf("s%d-r%d-p%d", sid, r, net.ID())
		in, err := transport.ExchangeAll(net, "echo", []byte(payload), nil)
		if err != nil {
			return err
		}
		if len(in) != net.N() {
			return fmt.Errorf("session %d round %d: %d messages, want %d", sid, r, len(in), net.N())
		}
		for j, msg := range in {
			want := fmt.Sprintf("s%d-r%d-p%d", sid, r, j)
			if string(msg.Payload) != want {
				return fmt.Errorf("session %d cross-talk: got %q want %q", sid, msg.Payload, want)
			}
		}
	}
	return nil
}

// runSession opens session sid on m, runs fn over it, and closes it
// whatever the outcome.
func runSession(m *sessmux.Mux, sid uint64, n, t int, fn func(net transport.Net) error) error {
	s, err := m.Open(sid, n, t)
	if err != nil {
		return err
	}
	defer s.Close()
	return fn(s)
}

// TestSessionsShareTicks runs two sessions of different sizes and
// lifetimes over one base: session 7 spans all 4 parties for 3 virtual
// rounds, session 9 spans parties 0..1 for 5. Parties keep the tick clock
// with Idle once their sessions end; total physical rounds must be
// max(3,5), not the sum — the round-sharing that makes the mux a mux.
func TestSessionsShareTicks(t *testing.T) {
	const n = 4
	res, err := testutil.Run(sim.Config{N: n, T: 1}, nil,
		func(env *sim.Env) (int, error) {
			m := sessmux.New(env)
			if env.ID() >= 2 {
				// Parties 2,3 run only session 7 (3 ticks), then keep the
				// clock for peers' session 9 with two Idle ticks.
				if err := runSession(m, 7, 4, 1, func(net transport.Net) error {
					return echoRounds(net, 7, 3)
				}); err != nil {
					return 0, err
				}
				for r := 0; r < 2; r++ {
					if err := m.Idle(); err != nil {
						return 0, err
					}
				}
				return 1, nil
			}
			// Both sessions must start on the same tick: open before driving.
			s7, err := m.Open(7, 4, 1)
			if err != nil {
				return 0, err
			}
			s9, err := m.Open(9, 2, 0)
			if err != nil {
				return 0, err
			}
			var wg sync.WaitGroup
			errs := make([]error, 2)
			wg.Add(2)
			go func() {
				defer wg.Done()
				defer s7.Close()
				errs[0] = echoRounds(s7, 7, 3)
			}()
			go func() {
				defer wg.Done()
				defer s9.Close()
				errs[1] = echoRounds(s9, 9, 5)
			}()
			wg.Wait()
			for _, e := range errs {
				if e != nil {
					return 0, e
				}
			}
			return 1, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Rounds != 5 {
		t.Errorf("physical rounds = %d, want 5 (max of session lengths)", res.Report.Rounds)
	}
}

// TestIdleKeepsClock: a party outside every session still ticks in lock
// step via Idle, and sees none of the traffic.
func TestIdleKeepsClock(t *testing.T) {
	const n = 3
	_, err := testutil.Run(sim.Config{N: n, T: 0}, nil,
		func(env *sim.Env) (int, error) {
			m := sessmux.New(env)
			if env.ID() == 2 {
				for r := 0; r < 4; r++ {
					if err := m.Idle(); err != nil {
						return 0, err
					}
				}
				return 1, nil
			}
			return 1, runSession(m, 1, 2, 0, func(net transport.Net) error {
				return echoRounds(net, 1, 4)
			})
		})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCloseIsOmission: party 0 closes session 5 after one round; the
// remaining participants keep running it and simply stop hearing from
// party 0 — sibling session 6 is untouched on every party.
func TestCloseIsOmission(t *testing.T) {
	const n = 4
	_, err := testutil.Run(sim.Config{N: n, T: 1}, nil,
		func(env *sim.Env) (int, error) {
			m := sessmux.New(env)
			s6, err := m.Open(6, 4, 1)
			if err != nil {
				return 0, err
			}
			s5, err := m.Open(5, 4, 1)
			if err != nil {
				return 0, err
			}
			var wg sync.WaitGroup
			errs := make([]error, 2)
			wg.Add(2)
			go func() {
				defer wg.Done()
				defer s6.Close()
				errs[0] = echoRounds(s6, 6, 4)
			}()
			go func() {
				defer wg.Done()
				defer s5.Close()
				errs[1] = func(net transport.Net) error {
					rounds := 4
					if net.ID() == 0 {
						rounds = 1 // early local exit
					}
					for r := 0; r < rounds; r++ {
						in, err := transport.ExchangeAll(net, "e", []byte{byte(r)}, nil)
						if err != nil {
							return err
						}
						want := net.N()
						if r >= 1 {
							want-- // party 0 has left: omission, not teardown
						}
						if len(in) != want {
							return fmt.Errorf("session 5 round %d: %d messages, want %d", r, len(in), want)
						}
					}
					return nil
				}(s5)
			}()
			wg.Wait()
			for _, e := range errs {
				if e != nil {
					return 0, e
				}
			}
			return 1, nil
		})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSubsetSessionDropsOutsiders: packets addressed outside the session
// are dropped at the merge, and messages from non-participants (which an
// honest mux never produces) would be dropped at demux — here we check
// the send side: a 2-party session over a 4-party base never leaks to
// parties 2..3.
func TestSubsetSessionDropsOutsiders(t *testing.T) {
	const n = 4
	_, err := testutil.Run(sim.Config{N: n, T: 1}, nil,
		func(env *sim.Env) (int, error) {
			m := sessmux.New(env)
			if env.ID() >= 2 {
				for r := 0; r < 2; r++ {
					if err := m.Idle(); err != nil {
						return 0, err
					}
				}
				return 1, nil
			}
			return 1, runSession(m, 3, 2, 0, func(net transport.Net) error {
				for r := 0; r < 2; r++ {
					out := []transport.Packet{
						{To: 0, Tag: "t", Payload: []byte{1}},
						{To: 1, Tag: "t", Payload: []byte{2}},
						{To: 3, Tag: "t", Payload: []byte{3}}, // outside the session: dropped
					}
					in, err := net.Exchange(out)
					if err != nil {
						return err
					}
					if len(in) != 2 {
						return fmt.Errorf("round %d: %d messages, want 2", r, len(in))
					}
				}
				return nil
			})
		})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOpenValidation exercises every Open precondition.
func TestOpenValidation(t *testing.T) {
	_, err := testutil.Run(sim.Config{N: 4, T: 1}, nil,
		func(env *sim.Env) (int, error) {
			m := sessmux.New(env)
			for _, tc := range []struct {
				sid  uint64
				n, t int
				want string
			}{
				{1, 0, 0, "outside"},
				{1, 5, 1, "outside"},
				{1, 4, 2, "3t < n"},
				{1, 4, -1, "3t < n"},
			} {
				if _, err := m.Open(tc.sid, tc.n, tc.t); err == nil || !strings.Contains(err.Error(), tc.want) {
					return 0, fmt.Errorf("Open(%d,%d,%d) = %v, want %q", tc.sid, tc.n, tc.t, err, tc.want)
				}
			}
			// Non-participant: parties 2,3 cannot open a 2-party session.
			if _, err := m.Open(2, 2, 0); env.ID() >= 2 {
				if err == nil || !strings.Contains(err.Error(), "not a participant") {
					return 0, fmt.Errorf("non-participant Open = %v", err)
				}
			} else if err != nil {
				return 0, err
			}
			s, err := m.Open(8, 4, 1)
			if err != nil {
				return 0, err
			}
			if _, err := m.Open(8, 4, 1); err == nil || !strings.Contains(err.Error(), "already open") {
				return 0, fmt.Errorf("dup Open = %v", err)
			}
			s.Close()
			if _, err := m.Open(8, 4, 1); err == nil || !strings.Contains(err.Error(), "already used") {
				return 0, fmt.Errorf("reuse Open = %v", err)
			}
			if _, err := s.Exchange(nil); err != sessmux.ErrClosed {
				return 0, fmt.Errorf("Exchange on closed session = %v", err)
			}
			return 1, nil
		})
	if err != nil {
		t.Fatal(err)
	}
}

// TestStatsCounters: ticks, packets, and the copy/reference split on a
// plain (sim) base — everything goes through the copying merge there.
func TestStatsCounters(t *testing.T) {
	const n = 3
	res, err := testutil.Run(sim.Config{N: n, T: 0}, nil,
		func(env *sim.Env) (sessmux.Stats, error) {
			m := sessmux.New(env)
			err := runSession(m, 1, 3, 0, func(net transport.Net) error {
				return echoRounds(net, 1, 2)
			})
			return m.Stats(), err
		})
	if err != nil {
		t.Fatal(err)
	}
	for id, st := range res.Outputs {
		if st.Ticks != 2 {
			t.Errorf("party %d: Ticks = %d, want 2", id, st.Ticks)
		}
		if st.Packets != 2*n {
			t.Errorf("party %d: Packets = %d, want %d", id, st.Packets, 2*n)
		}
		if st.BytesCopied == 0 || st.BytesReferenced != 0 {
			t.Errorf("party %d: copied=%d referenced=%d on a plain base", id, st.BytesCopied, st.BytesReferenced)
		}
	}
}
