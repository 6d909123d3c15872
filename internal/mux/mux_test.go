package mux_test

import (
	"errors"
	"fmt"
	"testing"

	"convexagreement/internal/ba"
	"convexagreement/internal/mux"
	"convexagreement/internal/sim"
	"convexagreement/internal/testutil"
	"convexagreement/internal/transport"
)

// TestParallelEcho runs k echo instances of different lengths over one
// transport and checks isolation and round sharing. In the double-done
// case every instance also retires itself before Run does: the second Done
// must be a no-op, or the live count drops below the instances still
// running and their rounds close early.
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
	type partyResult struct {
		rounds int
		seen   [k][]string
	}
	res, err := testutil.Run(sim.Config{N: n, T: 1}, nil,
		func(env *sim.Env) (partyResult, error) {
			var pr partyResult
			m, err := mux.New(env, k)
			if err != nil {
				return pr, err
			}
			fns := make([]func(net transport.Net) error, k)
			for inst := 0; inst < k; inst++ {
				inst := inst
				fns[inst] = func(net transport.Net) error {
					for r := 0; r < lengths[inst]; r++ {
						payload := fmt.Sprintf("i%d-r%d-p%d", inst, r, net.ID())
						in, err := transport.ExchangeAll(net, "echo", []byte(payload))
						if err != nil {
							return err
						}
						if len(in) != n {
							return fmt.Errorf("instance %d round %d: %d messages", inst, r, len(in))
						}
						for j, msg := range in {
							want := fmt.Sprintf("i%d-r%d-p%d", inst, r, j)
							if string(msg.Payload) != want {
								return fmt.Errorf("cross-talk: got %q want %q", msg.Payload, want)
							}
						}
						pr.seen[inst] = append(pr.seen[inst], string(in[0].Payload))
					}
					if doubleDone {
						m.Done(inst)
					}
					return nil
				}
			}
			if err := m.Run(fns); err != nil {
				return pr, err
			}
			return pr, nil
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
			m, err := mux.New(env, n)
			if err != nil {
				return outs, err
			}
			fns := make([]func(net transport.Net) error, n)
			for inst := 0; inst < n; inst++ {
				inst := inst
				fns[inst] = func(net transport.Net) error {
					// Instance i: all parties agree on bit i%2.
					out, err := ba.Binary(net, fmt.Sprintf("ba%d", inst), byte(inst%2))
					if err != nil {
						return err
					}
					outs[inst] = out
					return nil
				}
			}
			return outs, m.Run(fns)
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
// sibling's next Exchange fails with an error wrapping ErrAborted, and Run
// reports both the cause and the aborts.
func TestInstanceErrorAbortsComposition(t *testing.T) {
	boom := errors.New("boom")
	const k = 3
	for failing := 0; failing < k; failing++ {
		_, err := testutil.Run(sim.Config{N: 2, T: 0}, nil,
			func(env *sim.Env) (int, error) {
				m, err := mux.New(env, k)
				if err != nil {
					return 0, err
				}
				siblingErrs := make([]error, k)
				fns := make([]func(net transport.Net) error, k)
				for inst := range fns {
					inst := inst
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
				err = m.Run(fns)
				if !errors.Is(err, boom) || !errors.Is(err, mux.ErrAborted) {
					return 0, fmt.Errorf("Run = %v, want boom and ErrAborted", err)
				}
				for inst, serr := range siblingErrs {
					if inst != failing && !errors.Is(serr, mux.ErrAborted) {
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

func TestNewValidation(t *testing.T) {
	if _, err := mux.New(nil, 0); err == nil {
		t.Error("zero instances accepted")
	}
	m, err := mux.New(&stubNet{n: 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(nil); err == nil {
		t.Error("mismatched function count accepted")
	}
}
