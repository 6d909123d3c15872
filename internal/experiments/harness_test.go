package experiments

import (
	"errors"
	"math/big"
	"strings"
	"sync"
	"testing"
	"time"

	ca "convexagreement"
)

func smallInput(party, seq int) *big.Int { return big.NewInt(int64(100*seq + 3*party + 1)) }

// Rule 1: a party whose function returns early — here before its first
// round, on a rejected call — leaves the hub, and the other parties' rounds
// keep closing.
func TestEarlyReturnDoesNotHangTheRest(t *testing.T) {
	c := Cluster{N: 4, Instances: 2, Input: func(party, seq int) *big.Int {
		if party == 3 {
			return nil // Session.Agree rejects it: ErrOptions, no round run
		}
		return smallInput(party, seq)
	}}
	done := make(chan *Result, 1)
	go func() { done <- mustRun(c) }()
	select {
	case res := <-done:
		if !errors.Is(res.Parties[3].Err, ca.ErrOptions) {
			t.Fatalf("party 3: %v, want ErrOptions", res.Parties[3].Err)
		}
		if v := res.Judge([]int{0, 1, 2}); !v.Agree || !v.Valid {
			t.Fatal(v.Why)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("three parties hung on the one that returned early")
	}
}

// Rule 2 as a failing test: a kill target handed a fresh wrapper on every
// attempt counts its rounds from zero again and is killed again, once per
// attempt, by a schedule that names one kill; under the harness's one
// wrapper the same schedule costs exactly one restart.
func TestRewrappedKillTargetDiesAgain(t *testing.T) {
	const n, K = 4, 3
	c := Cluster{
		N: n, Instances: 2, Input: smallInput,
		Faults:  ca.FaultConfig{Kills: []ca.FaultKill{{Party: K, Round: totalRounds(n, 2, smallInput) / 3}}},
		Storage: map[int]Disk{K: {}},
	}
	res := mustRun(c)
	if k := res.Parties[K]; k.Err != nil || k.Health.Attempts != 2 {
		t.Fatalf("one wrapper: err %v after %d attempts, want 2 attempts", k.Err, k.Health.Attempts)
	}

	run, err := c.assemble()
	if err != nil {
		t.Fatal(err)
	}
	defer run.close()
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			run.party(i)
		}(i)
	}
	deaths := 0
	for {
		run.wraps[K] = nil // the mistake: WrapFaulty anew for this attempt
		err := run.attempt(K, nil)
		if err == nil {
			break
		}
		if !errors.Is(err, ca.ErrKilled) || deaths > 10 {
			t.Fatalf("attempt %d: %v", deaths, err)
		}
		deaths++
	}
	run.locals[K].Close()
	wg.Wait()
	if deaths < 2 {
		t.Fatalf("a re-wrapped kill target died %d time(s); the kill was expected to re-fire on every attempt", deaths)
	}
	if v := run.res.Judge(allBut(n)); !v.Agree || !v.Valid {
		t.Fatalf("the WAL resumes every death all the same: %s", v.Why)
	}
}

// TestVerdictReadsViolated drives the branch no passing run reaches: a
// hand-built disagreement, an out-of-hull output and a missing output must
// each read VIOLATED in the column they belong to.
func TestVerdictReadsViolated(t *testing.T) {
	outs := func(vs ...int64) *Result {
		r := &Result{Cluster: Cluster{N: len(vs), Instances: 1, Input: smallInput}}
		for _, v := range vs {
			p := PartyResult{Outs: []*big.Int{nil}}
			if v >= 0 {
				p.Outs[0] = big.NewInt(v)
			} else {
				p.Err = errors.New("gave up")
			}
			r.Parties = append(r.Parties, p)
		}
		return r
	}
	// Inputs are 1, 4, 7, 10: the hull of all four is [1, 10].
	for _, tc := range []struct {
		name         string
		res          *Result
		clean        []int
		agree, valid string
		why          string
	}{
		{"agreeing and inside", outs(4, 4, 4, 4), allBut(4), "ok", "ok", ""},
		{"disagreement", outs(4, 4, 5, 4), allBut(4), "VIOLATED", "ok", "party 2 output 5"},
		{"out of hull", outs(11, 11, 11, 11), allBut(4), "ok", "VIOLATED", "outside the clean hull"},
		{"hull is the clean parties'", outs(9, 9, 9, 9), []int{0, 1, 2}, "ok", "VIOLATED", "outside the clean hull"},
		{"missing output", outs(4, -1, 4, 4), allBut(4), "VIOLATED", "VIOLATED", "party 1 has no output (gave up)"},
		{"missing but not clean", outs(4, -1, 4, 4), allBut(4, 1), "ok", "ok", ""},
		{"nobody finished", outs(-1, -1), allBut(2), "VIOLATED", "VIOLATED", "party 0 has no output"},
	} {
		v := tc.res.Judge(tc.clean)
		if mark(v.Agree) != tc.agree || mark(v.Valid) != tc.valid || !strings.Contains(v.Why, tc.why) || (tc.why == "") != (v.Why == "") {
			t.Errorf("%s: agree %s validity %s (%q), want %s %s (%q)",
				tc.name, mark(v.Agree), mark(v.Valid), v.Why, tc.agree, tc.valid, tc.why)
		}
	}
}

// TestSameRunNoticesOneBit: two runs of one seeded cluster compare equal, and
// a single flipped bit in any compared layer of any party is reported with
// the party and the layer.
func TestSameRunNoticesOneBit(t *testing.T) {
	c := StorageFaults(4, 2, 1, 7)
	a, b := mustRun(c), mustRun(c)
	if err := SameRun(a, b); err != nil {
		t.Fatalf("identically-seeded runs differ: %v", err)
	}
	for _, tc := range []struct {
		layer string
		flip  func(p *PartyResult)
	}{
		{"instance 1 output", func(p *PartyResult) { p.Outs[1] = new(big.Int).Xor(p.Outs[1], big.NewInt(1)) }},
		{"session transcript", func(p *PartyResult) { p.Session ^= 1 << 63 }},
		{"faultnet transcript", func(p *PartyResult) { p.Net ^= 1 }},
		{"errfs transcript", func(p *PartyResult) { p.Disk ^= 1 << 17 }},
		{"WAL", func(p *PartyResult) { p.WAL2 = append([]byte(nil), p.WAL2...); p.WAL2[len(p.WAL2)/2] ^= 0x10 }},
	} {
		bent := *b
		bent.Parties = append([]PartyResult(nil), b.Parties...)
		bent.Parties[3].Outs = append([]*big.Int(nil), b.Parties[3].Outs...)
		tc.flip(&bent.Parties[3])
		err := SameRun(a, &bent)
		if err == nil || !strings.Contains(err.Error(), "party 3: "+tc.layer) {
			t.Errorf("one bit of party 3's %s flipped: SameRun says %v", tc.layer, err)
		}
	}
}
