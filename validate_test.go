package convexagreement_test

import (
	"errors"
	"math/big"
	"testing"

	ca "convexagreement"
)

// untouchable is party 0 of a four-party network that must never be used:
// a call rejected by validation has, by contract, not reached the wire.
type untouchable struct{ t *testing.T }

func (untouchable) ID() int { return 0 }
func (untouchable) N() int  { return 4 }
func (untouchable) T() int  { return 1 }
func (u untouchable) Exchange([]ca.Packet) ([]ca.Message, error) {
	u.t.Error("a rejected call reached the transport")
	return nil, errors.New("untouchable")
}

// TestRejectedCallsNeverStart: every way into the library refuses the same
// calls — whatever a protocol would refuse on entry — with ErrOptions,
// before anything reaches the wire, the write-ahead log or Session.Err().
// Each call is made through Agree/ApproxAgree (four simulated parties),
// RunParty/RunPartyApprox, and a Session without and with a checkpoint.
func TestRejectedCallsNeverStart(t *testing.T) {
	b := big.NewInt
	cases := []struct {
		name      string
		approx    bool
		protocol  ca.Protocol
		width     int
		input     *big.Int
		diam, eps *big.Int
	}{
		{name: "nil input", protocol: ca.ProtoOptimal},
		{name: "negative natural", protocol: ca.ProtoOptimalNat, input: b(-1)},
		{name: "negative for the baseline", protocol: ca.ProtoBroadcast, input: b(-1)},
		{name: "unknown protocol", protocol: "nope", input: b(1)},
		{name: "missing width", protocol: ca.ProtoFixedLength, input: b(1)},
		{name: "negative width", protocol: ca.ProtoFixedLengthBlocks, width: -16, input: b(1)},
		{name: "input ≥ 2^width", protocol: ca.ProtoFixedLength, width: 4, input: b(1000)},
		{name: "input = 2^width", protocol: ca.ProtoFixedLength, width: 4, input: b(16)},
		{name: "blocks input ≥ 2^width", protocol: ca.ProtoFixedLengthBlocks, width: 16, input: b(1 << 16)},
		{name: "width not a multiple of n²", protocol: ca.ProtoFixedLengthBlocks, width: 10, input: b(3)},
		{name: "approx nil bound and ε", approx: true, input: b(5)},
		{name: "approx nil ε", approx: true, input: b(5), diam: b(100)},
		{name: "approx nil bound", approx: true, input: b(5), eps: b(1)},
		{name: "approx ε = 0", approx: true, input: b(5), diam: b(100), eps: b(0)},
		{name: "approx ε < 0", approx: true, input: b(5), diam: b(100), eps: b(-1)},
		{name: "approx bound < 0", approx: true, input: b(5), diam: b(-1), eps: b(1)},
		{name: "approx nil input", approx: true, diam: b(100), eps: b(1)},
		{name: "approx negative input", approx: true, input: b(-5), diam: b(100), eps: b(1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rejected := func(how string, err error) {
				t.Helper()
				if !errors.Is(err, ca.ErrOptions) {
					t.Errorf("%s: %v, want ErrOptions", how, err)
				}
			}
			tr := untouchable{t}
			inputs := []*big.Int{tc.input, b(1), b(2), b(3)}
			if tc.approx {
				_, err := ca.ApproxAgree(inputs, tc.diam, tc.eps, ca.Options{})
				rejected("ApproxAgree", err)
				_, err = ca.RunPartyApprox(tr, tc.input, tc.diam, tc.eps)
				rejected("RunPartyApprox", err)
			} else {
				_, err := ca.Agree(inputs, ca.Options{Protocol: tc.protocol, Width: tc.width})
				rejected("Agree", err)
				_, err = ca.RunParty(tr, tc.protocol, tc.width, tc.input)
				rejected("RunParty", err)
			}
			for _, checkpointed := range []bool{false, true} {
				s, dir := ca.NewSession(tr), t.TempDir()
				if checkpointed {
					if err := s.Checkpoint(dir); err != nil {
						t.Fatal(err)
					}
				}
				var err error
				if tc.approx {
					_, err = s.ApproxAgree(tc.input, tc.diam, tc.eps)
				} else {
					_, err = s.Agree(tc.protocol, tc.width, tc.input)
				}
				rejected("Session", err)
				if s.Err() != nil || s.Seq() != 0 || s.Rounds() != 0 {
					t.Errorf("checkpointed=%v: rejected call left Err=%v Seq=%d Rounds=%d", checkpointed, s.Err(), s.Seq(), s.Rounds())
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				if st, err := ca.InspectState(dir); err != nil || st.Partial || st.Seq != 0 {
					t.Errorf("checkpointed=%v: rejected call left %+v in the log (%v)", checkpointed, st, err)
				}
			}
		})
	}
}

// TestSessionSurvivesRejectedCalls: on a live four-party cluster every
// party makes the three calls that used to poison it, then a valid one —
// which can only succeed if no rejected call exchanged a round.
func TestSessionSurvivesRejectedCalls(t *testing.T) {
	const n = 4
	locals, err := ca.NewLocalCluster(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, n)
	for i := range locals {
		go func() {
			defer locals[i].Close()
			s := ca.NewSession(locals[i])
			if _, err := s.ApproxAgree(big.NewInt(5), nil, nil); !errors.Is(err, ca.ErrOptions) {
				errs <- err
				return
			}
			if _, err := s.Agree(ca.ProtoFixedLength, 4, big.NewInt(1000)); !errors.Is(err, ca.ErrOptions) {
				errs <- err
				return
			}
			if _, err := s.Agree(ca.ProtoFixedLengthBlocks, 10, big.NewInt(3)); !errors.Is(err, ca.ErrOptions) {
				errs <- err
				return
			}
			_, err := s.Agree(ca.ProtoFixedLengthBlocks, 16, big.NewInt(int64(3+i)))
			errs <- err
		}()
	}
	for range locals {
		if err := <-errs; err != nil {
			t.Errorf("after three rejected calls: %v", err)
		}
	}
}
