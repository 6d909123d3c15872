package convexagreement_test

import (
	"fmt"
	"math/big"
	"testing"

	ca "convexagreement"
)

func TestApproxAgreeBasic(t *testing.T) {
	inputs := ints(100, 900, 400, 600, 500, 300, 700)
	res, err := ca.ApproxAgree(inputs, big.NewInt(1000), big.NewInt(4), ca.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Spread.Cmp(big.NewInt(4)) > 0 {
		t.Errorf("spread %v exceeds ε", res.Spread)
	}
	for id, v := range res.Outputs {
		if !ca.InHull(v, inputs) {
			t.Errorf("party %d output %v outside hull", id, v)
		}
	}
	if res.Rounds == 0 || res.HonestBits == 0 {
		t.Error("cost report empty")
	}
}

func TestApproxAgreeUnderGhosts(t *testing.T) {
	inputs := ints(1000, 1010, 1020, 1005, 1015, 1025, 1030)
	corr := map[int]ca.Corruption{
		2: {Kind: ca.AdvGhost, Input: big.NewInt(1 << 40)},
		5: {Kind: ca.AdvEquivocate},
	}
	var honest []*big.Int
	for i, v := range inputs {
		if _, bad := corr[i]; !bad {
			honest = append(honest, v)
		}
	}
	res, err := ca.ApproxAgree(inputs, big.NewInt(2000), big.NewInt(2), ca.Options{Corruptions: corr, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Spread.Cmp(big.NewInt(2)) > 0 {
		t.Errorf("spread %v exceeds ε", res.Spread)
	}
	for id, v := range res.Outputs {
		if !ca.InHull(v, honest) {
			t.Errorf("party %d output %v outside honest hull", id, v)
		}
	}
}

func TestApproxAgreeValidation(t *testing.T) {
	inputs := ints(1, 2, 3, 4)
	if _, err := ca.ApproxAgree(inputs, nil, big.NewInt(1), ca.Options{}); err == nil {
		t.Error("nil diameter accepted")
	}
	if _, err := ca.ApproxAgree(inputs, big.NewInt(10), big.NewInt(0), ca.Options{}); err == nil {
		t.Error("zero epsilon accepted")
	}
	if _, err := ca.ApproxAgree(ints(-1, 2, 3, 4), big.NewInt(10), big.NewInt(1), ca.Options{}); err == nil {
		t.Error("negative input accepted")
	}
}

func TestAsyncApproxAgreeSchedulers(t *testing.T) {
	inputs := ints(10, 500, 900, 200, 700, 350, 60)
	for _, sched := range []ca.AsyncScheduler{ca.SchedRandom, ca.SchedLIFO, ca.SchedDelay} {
		res, err := ca.AsyncApproxAgree(inputs, big.NewInt(1000), big.NewInt(8),
			ca.AsyncOptions{Scheduler: sched, Seed: 3})
		if err != nil {
			t.Fatalf("%s: %v", sched, err)
		}
		if res.Spread.Cmp(big.NewInt(8)) > 0 {
			t.Errorf("%s: spread %v exceeds ε", sched, res.Spread)
		}
		for id, v := range res.Outputs {
			if !ca.InHull(v, inputs) {
				t.Errorf("%s: party %d output %v outside hull", sched, id, v)
			}
		}
		if res.Deliveries == 0 {
			t.Errorf("%s: no deliveries recorded", sched)
		}
	}
}

// TestAsyncApproxAgreeIsSeedExact: the asynchronous simulator hands exactly
// one party the CPU between two scheduler picks, so a run is a function of
// its seed — delivery count and every output, under every scheduler,
// whatever the Go scheduler does with the party goroutines.
func TestAsyncApproxAgreeIsSeedExact(t *testing.T) {
	inputs := ints(10, 900, 200, 700)
	for _, sched := range []ca.AsyncScheduler{ca.SchedRandom, ca.SchedLIFO, ca.SchedDelay} {
		var want string
		for run := 0; run < 10; run++ {
			res, err := ca.AsyncApproxAgree(inputs, big.NewInt(1000), big.NewInt(8),
				ca.AsyncOptions{Scheduler: sched, Seed: 3})
			if err != nil {
				t.Fatalf("%s run %d: %v", sched, run, err)
			}
			got := fmt.Sprint(res.Deliveries, res.Outputs)
			if run == 0 {
				want = got
			} else if got != want {
				t.Fatalf("%s: run %d differs from run 0 under one seed:\n got  %s\n want %s", sched, run, got, want)
			}
		}
	}
}

func TestAsyncApproxAgreeByzantine(t *testing.T) {
	inputs := ints(100, 110, 120, 105, 115, 125, 130, 108, 118, 128)
	corr := map[int]ca.Corruption{
		1: {Kind: ca.AdvSilent},
		4: {Kind: ca.AdvGhost, Input: big.NewInt(1 << 50)},
		8: {Kind: ca.AdvGarbage},
	}
	var honest []*big.Int
	for i, v := range inputs {
		if _, bad := corr[i]; !bad {
			honest = append(honest, v)
		}
	}
	res, err := ca.AsyncApproxAgree(inputs, big.NewInt(256), big.NewInt(2),
		ca.AsyncOptions{Corruptions: corr, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Spread.Cmp(big.NewInt(2)) > 0 {
		t.Errorf("spread %v exceeds ε", res.Spread)
	}
	for id, v := range res.Outputs {
		if !ca.InHull(v, honest) {
			t.Errorf("party %d output %v outside honest hull", id, v)
		}
	}
}

func TestAsyncApproxAgreeValidation(t *testing.T) {
	inputs := ints(1, 2, 3, 4)
	if _, err := ca.AsyncApproxAgree(nil, big.NewInt(1), big.NewInt(1), ca.AsyncOptions{}); err == nil {
		t.Error("no inputs accepted")
	}
	if _, err := ca.AsyncApproxAgree(inputs, big.NewInt(1), big.NewInt(1),
		ca.AsyncOptions{Scheduler: "bogus"}); err == nil {
		t.Error("unknown scheduler accepted")
	}
	if _, err := ca.AsyncApproxAgree(inputs, big.NewInt(1), big.NewInt(1),
		ca.AsyncOptions{Corruptions: map[int]ca.Corruption{0: {Kind: ca.AdvEquivocate}}}); err == nil {
		t.Error("sync-only adversary accepted")
	}
	if _, err := ca.AsyncApproxAgree(inputs, big.NewInt(1), big.NewInt(1),
		ca.AsyncOptions{Corruptions: map[int]ca.Corruption{0: {Kind: ca.AdvGhost}}}); err == nil {
		t.Error("ghost without input accepted")
	}
}
