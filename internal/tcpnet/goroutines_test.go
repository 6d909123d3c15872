package tcpnet_test

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"convexagreement/internal/tcpnet"
	"convexagreement/internal/transport"
)

// TestNoGoroutinesAfterClose is the runtime check on the mesh's goroutine
// lifetimes (it replaced a static goroutine-leak check that caught half of
// what this does): every goroutine a Conn starts — accept loop, inbound
// handshakes, read loops, reconnect loops — is gone once Close returns, on
// a run that has exercised each of them. An n = 4 mesh runs a round, loses
// a link on its dialing side and runs two rounds across the re-dial, loses
// a whole party and runs one more, then closes; a loop that spins instead
// of exiting hangs Close (the read and accept loops are in its WaitGroup)
// or leaves the count above where it started.
func TestNoGoroutinesAfterClose(t *testing.T) {
	before := runtime.NumGoroutine()
	cfgs := newCluster(t, 4, 1)
	for i := range cfgs {
		cfgs[i].Delta = 300 * time.Millisecond
		cfgs[i].ReconnectBase = 5 * time.Millisecond
	}
	// Dialed here rather than with dialAll: its cleanup would Close again,
	// and on the failure this test exists for, Close is what hangs.
	conns := make([]*tcpnet.Conn, len(cfgs))
	var dials sync.WaitGroup
	for i := range cfgs {
		dials.Add(1)
		go func(i int) {
			defer dials.Done()
			var err error
			if conns[i], err = tcpnet.Dial(cfgs[i]); err != nil {
				t.Errorf("party %d dial: %v", i, err)
			}
		}(i)
	}
	if dials.Wait(); t.Failed() {
		t.FailNow()
	}
	closeAll := func(parties ...int) {
		t.Helper()
		closed := make(chan struct{})
		go func() {
			defer close(closed)
			for _, i := range parties {
				conns[i].Close()
			}
		}()
		select {
		case <-closed:
		case <-time.After(5 * time.Second):
			t.Fatalf("Close still blocked after 5s: a loop it waits for never exits\n%s", allStacks())
		}
	}
	// round runs one exchange on the given parties and returns how many
	// messages the last of them received.
	round := func(parties ...int) int {
		t.Helper()
		var wg sync.WaitGroup
		got := make([]int, len(conns))
		for _, i := range parties {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				in, err := transport.ExchangeAll(conns[i], "r", []byte{byte(i)}, nil)
				if err != nil {
					t.Errorf("party %d: %v", i, err)
				}
				got[i] = len(in)
			}(i)
		}
		wg.Wait()
		return got[parties[len(parties)-1]]
	}
	round(0, 1, 2, 3)
	// Party 3 dialed party 0, so breaking the link from its side takes the
	// active reconnect path; rounds keep closing (without the down peer)
	// until the re-dialed link carries party 0's frame again, then one more.
	conns[3].BreakLink(0)
	for tries := 0; round(0, 1, 2, 3) < 4; tries++ {
		if tries == 1000 {
			t.Fatal("link 3→0 never came back")
		}
		time.Sleep(time.Millisecond)
	}
	round(0, 1, 2, 3)
	closeAll(2) // a party leaves early; party 3 starts re-dialing it
	round(0, 1, 3)
	closeAll(0, 1, 3)
	// The reconnect loops and inbound handshakes are not in Close's
	// WaitGroup (Close must not wait out a dial); they observe c.done and
	// exit on their own.
	deadline := time.After(5 * time.Second)
	for runtime.NumGoroutine() > before {
		select {
		case <-deadline:
			t.Fatalf("%d goroutines 5s after Close, %d before the mesh\n%s", runtime.NumGoroutine(), before, allStacks())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func allStacks() []byte {
	buf := make([]byte, 1<<20)
	return buf[:runtime.Stack(buf, true)]
}
