package tcpnet_test

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"convexagreement/internal/tcpnet"
	"convexagreement/internal/transport"
	"convexagreement/internal/wire"
)

// tightBudget is a deliberately small per-peer budget: far above anything
// the honest exchange loop sends (one tiny frame per round), far below
// what any of the raw-socket adversaries (netattack_test.go) need to do damage.
func tightBudget() *wire.Budget {
	return &wire.Budget{
		FrameBytes:  64 << 10,
		RoundFrames: 32,
		RoundBytes:  1 << 20,
		BurstRounds: 8,
	}
}

// TestAttackFloodMesh is the flagship of the ingress battery: a live n=4
// mesh where parties 0..2 are honest and party 3 is a floodAttack
// adversary pumping legal frames at every honest party at socket speed.
// The honest parties keep exchanging rounds throughout; the flooder must
// be demoted everywhere with ReasonRate, honest traffic must keep landing,
// and the flood must not pin memory after it is cut off.
func TestAttackFloodMesh(t *testing.T) {
	const rounds = 10
	cfgs := newCluster(t, 4, 1)
	for i := 0; i < 3; i++ {
		cfgs[i].Delta = 500 * time.Millisecond
		cfgs[i].Budget = tightBudget()
	}

	// Dial the three honest parties while one flood attacker per victim
	// handshakes as party 3 — Dial blocks until the mesh is complete, so
	// the attackers double as the missing fourth party.
	stop := make(chan struct{})
	defer close(stop)
	reports := make([]attackReport, 3)
	var attackers sync.WaitGroup
	for i := 0; i < 3; i++ {
		attackers.Add(1)
		go func(i int) {
			defer attackers.Done()
			reports[i] = floodAttack(attackTarget{Addr: cfgs[i].Addrs[i], ID: 3}, int64(1000+i), stop)
		}(i)
	}
	conns := dialAll(t, cfgs[:3])

	// Honest parties run the exchange loop under fire.
	var wg sync.WaitGroup
	errs := make([]error, 3)
	inboxes := make([][]transport.Message, 3)
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c *tcpnet.Conn) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				in, err := transport.ExchangeAll(c, "battery", []byte{byte(i)}, nil)
				if err != nil {
					errs[i] = err
					return
				}
				inboxes[i] = in
			}
		}(i, c)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("honest party %d under flood: %v", i, err)
		}
	}

	// Every honest party still hears every honest party in the final round.
	for i, in := range inboxes {
		seen := map[transport.PartyID]bool{}
		for _, msg := range in {
			seen[msg.From] = true
		}
		for j := transport.PartyID(0); j < 3; j++ {
			if !seen[j] {
				t.Errorf("party %d round %d: no message from honest party %d", i, rounds-1, j)
			}
		}
	}

	// The flooder is demoted everywhere, for rate, and nowhere else.
	for i, c := range conns {
		waitFaulty(t, c, []int{3})
		s := c.Stats()
		if len(s.Demotions) != 1 || s.Demotions[0].Peer != 3 || s.Demotions[0].Reason != wire.ReasonRate {
			t.Errorf("party %d Demotions = %+v, want [{Peer:3 Reason:rate}]", i, s.Demotions)
		}
	}

	// The attackers were cut off by the victims, not by the stop channel.
	attackers.Wait()
	for i, rep := range reports {
		if rep.Err == nil {
			t.Errorf("attacker on party %d was never cut off (%d frames sent)", i, rep.Frames)
		}
		if rep.Frames == 0 {
			t.Errorf("attacker on party %d sent nothing — attack never ran", i)
		}
	}

	// Whatever the flood managed to land must be reclaimable: after the
	// round buffers drain, retained heap for all three victims together
	// stays under a generous bound.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > 64<<20 {
		t.Errorf("retained heap after flood = %d MiB, want < 64 MiB", ms.HeapAlloc>>20)
	}
}

// TestAttackOversizeStorm: hostile length prefixes from oversizeStorm are
// refused on the prefix alone and the attacker is demoted — with
// ReasonBudget when the announced body exceeds the per-frame budget, or
// ReasonProtocol when it exceeds the structural cap. Either verdict ends
// the attack; which one fires first depends on the seed's draw.
func TestAttackOversizeStorm(t *testing.T) {
	cfgs := newCluster(t, 2, 0)
	cfgs[0].Delta = 300 * time.Millisecond
	cfgs[0].Budget = tightBudget()

	var rep attackReport
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rep = oversizeStorm(attackTarget{Addr: cfgs[0].Addrs[0], ID: 1}, 7, nil)
	}()
	conn, err := tcpnet.Dial(cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })

	waitFaulty(t, conn, []int{1})
	wg.Wait()
	if rep.Err == nil {
		t.Fatal("attacker was never cut off")
	}
	s := conn.Stats()
	if len(s.Demotions) != 1 || s.Demotions[0].Peer != 1 {
		t.Fatalf("Demotions = %+v, want exactly one for peer 1", s.Demotions)
	}
	if r := s.Demotions[0].Reason; r != wire.ReasonBudget && r != wire.ReasonProtocol {
		t.Fatalf("demotion reason = %v, want budget or protocol", r)
	}
}

// TestAttackSlowLoris: a trickled frame that always makes just enough
// progress to defeat a naive idle timeout is classified as a stall by the
// read-progress deadline and the attacker is demoted with ReasonStall —
// within the idle timeout of the link coming up, however the read loop
// re-arms its deadline.
func TestAttackSlowLoris(t *testing.T) {
	if testing.Short() {
		t.Skip("stall detection waits out a read-progress deadline")
	}
	const idle = 2 * time.Second // 8Δ, floored at 2 s
	cfgs := newCluster(t, 2, 0)
	cfgs[0].Delta = 300 * time.Millisecond
	cfgs[0].Budget = tightBudget()

	var rep attackReport
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rep = slowLoris(attackTarget{Addr: cfgs[0].Addrs[0], ID: 1}, 100*time.Millisecond, nil)
	}()
	conn, err := tcpnet.Dial(cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })

	start := time.Now()
	waitFaulty(t, conn, []int{1})
	if elapsed := time.Since(start); elapsed > idle+idle/4 {
		t.Errorf("stall demotion took %v after the link came up, want within the %v idle timeout", elapsed, idle)
	}
	wg.Wait()
	if rep.Err == nil {
		t.Fatal("attacker was never cut off")
	}
	wantDemotion(t, conn, 1, wire.ReasonStall)
}

// TestAttackHelloStorm: reconnect-handshake churn from one host is capped
// at HelloBurst accepted hellos; everything past the cap is refused before
// the victim does any per-link work, and the refusals are counted.
func TestAttackHelloStorm(t *testing.T) {
	const burst, attempts = 4, 12
	cfgs := newCluster(t, 2, 0)
	cfgs[0].Delta = 300 * time.Millisecond
	cfgs[0].HelloBurst = burst

	var rep attackReport
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// The storm's first hello doubles as party 1's mesh link, letting
		// Dial below complete; the rest is pure churn.
		rep = helloStorm(attackTarget{Addr: cfgs[0].Addrs[0], ID: 1}, attempts, nil)
	}()
	conn, err := tcpnet.Dial(cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	wg.Wait()

	if rep.Err != nil {
		t.Fatalf("storm aborted early: %v", rep.Err)
	}
	if rep.Conns != attempts {
		t.Fatalf("storm opened %d conns, want %d", rep.Conns, attempts)
	}
	if rep.Accepted != burst {
		t.Errorf("victim accepted %d hellos, want exactly HelloBurst=%d", rep.Accepted, burst)
	}
	if got := conn.Stats().HellosRejected; got != attempts-burst {
		t.Errorf("Stats.HellosRejected = %d, want %d", got, attempts-burst)
	}
}
