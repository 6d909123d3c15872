package convexagreement_test

import (
	"fmt"
	"math/big"
	"sync"
	"testing"

	ca "convexagreement"
)

// stackRun is what one party saw of a run of back-to-back instances: its
// outputs and its Session's transcript digest.
type stackRun struct {
	outs       []*big.Int
	transcript uint64
}

// runStack runs one ca.Session per party over a fresh local cluster of n,
// each party's transport made by wrap (which also returns what to close
// once the party is done), and the given instances' inputs in order.
func runStack(t *testing.T, n int, inputs [][]*big.Int, wrap func(*ca.LocalTransport) (ca.Transport, func(), error)) []stackRun {
	t.Helper()
	cluster, err := ca.NewLocalCluster(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	runs := make([]stackRun, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer cluster[i].Close()
			tr, done, err := wrap(cluster[i])
			if err != nil {
				errs[i] = err
				return
			}
			defer done()
			s := ca.NewSession(tr)
			for _, in := range inputs {
				out, err := s.Agree(ca.ProtoOptimal, 0, in[i])
				if err != nil {
					errs[i] = err
					return
				}
				runs[i].outs = append(runs[i].outs, out)
			}
			runs[i].transcript = s.Transcript()
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("party %d: %v", i, err)
		}
	}
	return runs
}

// TestCrossTransportDifferential runs three back-to-back Π_ℤ instances
// with fixed inputs, one Session per party, over three in-process stacks:
// the local cluster, the same behind an empty fault schedule, and a
// SessionMux session on it. Every party's outputs and Session transcript
// must be the same on all three, and the outputs must be the simulator's
// (ca.Agree on the same inputs).
func TestCrossTransportDifferential(t *testing.T) {
	stacks := []struct {
		name string
		wrap func(*ca.LocalTransport) (ca.Transport, func(), error)
	}{
		{"local", func(l *ca.LocalTransport) (ca.Transport, func(), error) {
			return l, func() {}, nil
		}},
		{"faulty", func(l *ca.LocalTransport) (ca.Transport, func(), error) {
			f, err := ca.WrapFaulty(l, ca.FaultConfig{})
			return f, func() {}, err
		}},
		{"muxed", func(l *ca.LocalTransport) (ca.Transport, func(), error) {
			mt, err := ca.NewSessionMux(l).Open(1, l.N(), l.T())
			if err != nil {
				return nil, nil, err
			}
			return mt, func() { mt.Close() }, nil
		}},
	}
	for _, n := range []int{4, 7} {
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			inputs := make([][]*big.Int, 3)
			for seq := range inputs {
				inputs[seq] = make([]*big.Int, n)
				for i := range n {
					inputs[seq][i] = big.NewInt(int64(1000*seq + 37*i*i - 5*i - 90))
				}
			}
			want := make([]*big.Int, len(inputs))
			for seq, in := range inputs {
				res, err := ca.Agree(in, ca.Options{Protocol: ca.ProtoOptimal})
				if err != nil {
					t.Fatal(err)
				}
				want[seq] = res.Output
			}
			base := runStack(t, n, inputs, stacks[0].wrap)
			for i, r := range base {
				for seq, out := range r.outs {
					if out.Cmp(want[seq]) != 0 {
						t.Errorf("local: party %d instance %d output %v, ca.Agree %v", i, seq, out, want[seq])
					}
				}
			}
			for _, st := range stacks[1:] {
				got := runStack(t, n, inputs, st.wrap)
				for i := range got {
					if got[i].transcript != base[i].transcript {
						t.Errorf("%s: party %d transcript %#x, local %#x", st.name, i, got[i].transcript, base[i].transcript)
					}
					for seq := range got[i].outs {
						if got[i].outs[seq].Cmp(base[i].outs[seq]) != 0 {
							t.Errorf("%s: party %d instance %d output %v, local %v", st.name, i, seq, got[i].outs[seq], base[i].outs[seq])
						}
					}
				}
			}
		})
	}
}
