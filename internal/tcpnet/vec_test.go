package tcpnet_test

import (
	"sync"
	"testing"

	"convexagreement/internal/transport"
)

// TestExchangeVecEmptyAndOutOfRange: packets to out-of-range parties are
// dropped, empty vectors are legal, and a round with no vec packets at all
// still closes.
func TestExchangeVecEmptyAndOutOfRange(t *testing.T) {
	conns := dialAll(t, newCluster(t, 2, 0))
	var wg sync.WaitGroup
	results := make([][]transport.Message, 2)
	errs := make([]error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		results[0], errs[0] = conns[0].ExchangeVec([]transport.VecPacket{
			{To: -1, Vec: [][]byte{[]byte("dropped")}},
			{To: 5, Vec: [][]byte{[]byte("dropped")}},
			{To: 1, Vec: nil}, // empty payload, delivered as such
		})
	}()
	go func() {
		defer wg.Done()
		results[1], errs[1] = conns[1].ExchangeVec(nil)
	}()
	wg.Wait()
	for i := range conns {
		if errs[i] != nil {
			t.Fatalf("party %d: %v", i, errs[i])
		}
	}
	if len(results[0]) != 0 {
		t.Fatalf("party 0 received %d messages, want 0", len(results[0]))
	}
	if len(results[1]) != 1 || results[1][0].From != 0 || len(results[1][0].Payload) != 0 {
		t.Fatalf("party 1 inbox = %+v, want one empty payload from 0", results[1])
	}
}
