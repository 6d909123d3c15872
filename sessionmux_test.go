package convexagreement_test

import (
	"errors"
	"math/big"
	"sync"
	"testing"

	ca "convexagreement"
)

var (
	errNoTraffic    = errors.New("session mux reported no traffic")
	errReuseAllowed = errors.New("reopening a used session id succeeded")
)

// TestSessionMuxLocalCluster runs two concurrent agreement sessions of
// different shapes over one in-process cluster: session 1 spans all 4
// parties, session 2 only parties 0..1. Each must agree internally, and
// outputs must satisfy convex validity for that session's inputs.
func TestSessionMuxLocalCluster(t *testing.T) {
	const n = 4
	cluster, err := ca.NewLocalCluster(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	in1 := ints(3, -8, 12, 5)
	in2 := ints(100, 140)
	out1 := make([]*big.Int, n)
	out2 := make([]*big.Int, 2)
	errs := make([]error, 2*n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer cluster[i].Close()
			sm := ca.NewSessionMux(cluster[i])
			// Both sessions must start on the same tick: open both before
			// driving either.
			mt1, err := sm.Open(1, n, 1)
			if err != nil {
				errs[i] = err
				return
			}
			var mt2 *ca.MuxedTransport
			if i < 2 {
				if mt2, err = sm.Open(2, 2, 0); err != nil {
					errs[i] = err
					return
				}
			}
			var iwg sync.WaitGroup
			iwg.Add(1)
			go func() {
				defer iwg.Done()
				defer mt1.Close()
				out1[i], errs[i] = ca.RunParty(mt1, ca.ProtoOptimal, 0, in1[i])
			}()
			if i < 2 {
				iwg.Add(1)
				go func() {
					defer iwg.Done()
					defer mt2.Close()
					out2[i], errs[n+i] = ca.RunParty(mt2, ca.ProtoOptimal, 0, in2[i])
				}()
			}
			iwg.Wait()
			// Peers' sessions may outlive ours; keep the tick clock until
			// every local session is done — here both finished, and other
			// parties still mid-protocol are synchronized by the base
			// transport's lock-step round, so no Idle loop is needed for
			// the in-process hub once this party's Close retires it.
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("slot %d: %v", i, err)
		}
	}
	for i := 1; i < n; i++ {
		if out1[i].Cmp(out1[0]) != 0 {
			t.Fatalf("session 1 disagreement: %v vs %v", out1[i], out1[0])
		}
	}
	if out2[0].Cmp(out2[1]) != 0 {
		t.Fatalf("session 2 disagreement: %v vs %v", out2[0], out2[1])
	}
	if out1[0].Cmp(big.NewInt(-8)) < 0 || out1[0].Cmp(big.NewInt(12)) > 0 {
		t.Fatalf("session 1 output %v outside input hull", out1[0])
	}
	if out2[0].Cmp(big.NewInt(100)) < 0 || out2[0].Cmp(big.NewInt(140)) > 0 {
		t.Fatalf("session 2 output %v outside input hull", out2[0])
	}
}

// TestSessionMuxRunSession covers the one-call convenience wrapper and
// session-id reuse refusal through the public API.
func TestSessionMuxRunSession(t *testing.T) {
	const n = 3
	cluster, err := ca.NewLocalCluster(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	inputs := ints(1, 2, 3)
	outs := make([]*big.Int, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer cluster[i].Close()
			sm := ca.NewSessionMux(cluster[i])
			outs[i], errs[i] = sm.RunSession(7, n, 0, ca.ProtoOptimal, 0, inputs[i])
			if errs[i] != nil {
				return
			}
			if _, err := sm.Open(7, n, 0); err == nil {
				errs[i] = errReuseAllowed
				return
			}
			st := sm.Stats()
			if st.Ticks == 0 || st.Packets == 0 {
				errs[i] = errNoTraffic
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("party %d: %v", i, err)
		}
	}
	for i := 1; i < n; i++ {
		if outs[i].Cmp(outs[0]) != 0 {
			t.Fatalf("disagreement: %v vs %v", outs[i], outs[0])
		}
	}
}

// customTransport is a Transport spelled the way user code written before
// Packet, Message and Transport became aliases spells one: ID() int, and
// the public Packet/Message struct literals with their int fields.
type customTransport struct{ inner *ca.LocalTransport }

func (c customTransport) ID() int { return c.inner.ID() }
func (c customTransport) N() int  { return c.inner.N() }
func (c customTransport) T() int  { return c.inner.T() }
func (c customTransport) Exchange(out []ca.Packet) ([]ca.Message, error) {
	relabeled := make([]ca.Packet, len(out))
	for i, p := range out {
		var to int = p.To
		relabeled[i] = ca.Packet{To: to, Tag: p.Tag, Payload: p.Payload}
	}
	in, err := c.inner.Exchange(relabeled)
	for _, m := range in {
		var from int = m.From
		_ = ca.Message{From: from, Payload: m.Payload}
	}
	return in, err
}

// TestCustomTransportStillCompiles: a user-defined Transport keeps working
// with RunParty and NewSessionMux (which takes the flattening path for
// anything that is not the built-in TCP mesh).
func TestCustomTransportStillCompiles(t *testing.T) {
	const n = 4
	cluster, err := ca.NewLocalCluster(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	in := ints(7, 9, 8, 11)
	outs := make([]*big.Int, n)
	errs := make([]error, n)
	stats := make([]ca.SessionMuxStats, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer cluster[i].Close()
			var tr ca.Transport = customTransport{cluster[i]}
			if outs[i], errs[i] = ca.RunParty(tr, ca.ProtoOptimal, 0, in[i]); errs[i] != nil {
				return
			}
			sm := ca.NewSessionMux(tr)
			outs[i], errs[i] = sm.RunSession(1, n, 1, ca.ProtoOptimal, 0, in[i])
			stats[i] = sm.Stats()
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("party %d: %v", i, errs[i])
		}
		if outs[i].Cmp(outs[0]) != 0 || outs[i].Cmp(big.NewInt(7)) < 0 || outs[i].Cmp(big.NewInt(11)) > 0 {
			t.Fatalf("party %d output %v (party 0: %v), inputs 7..11", i, outs[i], outs[0])
		}
		if stats[i].BytesCopied == 0 || stats[i].BytesReferenced != 0 {
			t.Fatalf("party %d: copied=%d referenced=%d over a flat-packet transport", i, stats[i].BytesCopied, stats[i].BytesReferenced)
		}
	}
}

// unsortedTransport breaks the one delivery property a custom Transport is
// asked for: it hands every inbox over in descending sender order.
type unsortedTransport struct{ customTransport }

func (u unsortedTransport) Exchange(out []ca.Packet) ([]ca.Message, error) {
	in, err := u.customTransport.Exchange(out)
	reversed := make([]ca.Message, len(in))
	for i, m := range in {
		reversed[len(in)-1-i] = m
	}
	return reversed, err
}

// TestUnsortedTransportStillAgrees: an honest round is its own
// first-per-sender set only when it arrives sorted; over a transport that
// delivers out of order the protocols take the filtering fallback and must
// agree all the same.
func TestUnsortedTransportStillAgrees(t *testing.T) {
	const n = 4
	cluster, err := ca.NewLocalCluster(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	in := ints(-3, 12, 5, 8)
	outs := make([]*big.Int, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer cluster[i].Close()
			outs[i], errs[i] = ca.RunParty(unsortedTransport{customTransport{cluster[i]}}, ca.ProtoOptimal, 0, in[i])
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("party %d: %v", i, errs[i])
		}
		if outs[i].Cmp(outs[0]) != 0 || outs[i].Cmp(big.NewInt(-3)) < 0 || outs[i].Cmp(big.NewInt(12)) > 0 {
			t.Fatalf("party %d output %v (party 0: %v), inputs -3..12", i, outs[i], outs[0])
		}
	}
}
