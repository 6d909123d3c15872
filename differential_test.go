package convexagreement_test

import (
	"fmt"
	"math/big"
	"net"
	"sync"
	"testing"
	"time"

	ca "convexagreement"
)

// stackRun is what one party saw of a run of back-to-back instances: its
// outputs and its Session's transcript digest.
type stackRun struct {
	outs       []*big.Int
	transcript uint64
}

// A stack makes every party's transport: open sets up what the parties
// share for a run of n and returns the per-party dial, which also returns
// what to close once the party is done. Dials run concurrently.
type stack struct {
	name string
	open func(t *testing.T, n int) func(i int) (ca.Transport, func(), error)
}

// localStack is a fresh local cluster of n, each party's transport made
// from its LocalTransport by wrap.
func localStack(name string, wrap func(*ca.LocalTransport) (ca.Transport, func(), error)) stack {
	return stack{name, func(t *testing.T, n int) func(int) (ca.Transport, func(), error) {
		cluster, err := ca.NewLocalCluster(n, 0)
		if err != nil {
			t.Fatal(err)
		}
		return func(i int) (ca.Transport, func(), error) {
			tr, done, err := wrap(cluster[i])
			if err != nil {
				cluster[i].Close()
				return nil, nil, err
			}
			return tr, func() { done(); cluster[i].Close() }, nil
		}
	}}
}

// tcpStack is a loopback DialTCP mesh of n. Δ is generous, so that on a
// healthy mesh every round closes with every peer's frame, never at Δ.
var tcpStack = stack{"tcp", func(t *testing.T, n int) func(int) (ca.Transport, func(), error) {
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i], addrs[i] = ln, ln.Addr().String()
	}
	return func(i int) (ca.Transport, func(), error) {
		tr, err := ca.DialTCP(ca.TCPConfig{ID: i, Addrs: addrs, Delta: 10 * time.Second, Listener: listeners[i]})
		if err != nil {
			listeners[i].Close()
			return nil, nil, err
		}
		return tr, func() { tr.Close() }, nil
	}
}}

// runStack runs one ca.Session per party over st at n, and the given
// instances' inputs in order.
func runStack(t *testing.T, n int, inputs [][]*big.Int, st stack) []stackRun {
	t.Helper()
	dial := st.open(t, n)
	runs := make([]stackRun, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, done, err := dial(i)
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
// with fixed inputs, one Session per party, over four stacks: the local
// cluster, the same behind an empty fault schedule, a SessionMux session
// on it, and a loopback TCP mesh. Every party's outputs and Session
// transcript must be the same on all four, and the outputs must be the
// simulator's (ca.Agree on the same inputs).
func TestCrossTransportDifferential(t *testing.T) {
	stacks := []stack{
		localStack("local", func(l *ca.LocalTransport) (ca.Transport, func(), error) {
			return l, func() {}, nil
		}),
		localStack("faulty", func(l *ca.LocalTransport) (ca.Transport, func(), error) {
			f, err := ca.WrapFaulty(l, ca.FaultConfig{})
			return f, func() {}, err
		}),
		localStack("muxed", func(l *ca.LocalTransport) (ca.Transport, func(), error) {
			mt, err := ca.NewSessionMux(l).Open(1, l.N(), l.T())
			if err != nil {
				return nil, nil, err
			}
			return mt, func() { mt.Close() }, nil
		}),
		tcpStack,
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
			base := runStack(t, n, inputs, stacks[0])
			for i, r := range base {
				for seq, out := range r.outs {
					if out.Cmp(want[seq]) != 0 {
						t.Errorf("local: party %d instance %d output %v, ca.Agree %v", i, seq, out, want[seq])
					}
				}
			}
			for _, st := range stacks[1:] {
				got := runStack(t, n, inputs, st)
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
