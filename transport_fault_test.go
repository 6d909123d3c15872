package convexagreement_test

import (
	"bytes"
	"errors"
	"math/big"
	"sync"
	"testing"

	ca "convexagreement"
)

// wrapCluster wraps every transport of a fresh local cluster with the same
// fault configuration, the deployment pattern WrapFaulty is built for. It
// also returns the underlying locals: the cluster is lock-step, so a party
// that finishes early must Close its local transport for the others' rounds
// to keep closing.
func wrapCluster(t *testing.T, n int, cfg ca.FaultConfig) ([]*ca.FaultyTransport, []*ca.LocalTransport) {
	t.Helper()
	locals, err := ca.NewLocalCluster(n, (n-1)/3)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*ca.FaultyTransport, n)
	for i, l := range locals {
		l := l
		out[i], err = ca.WrapFaulty(l, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
	}
	return out, locals
}

// TestWrapFaultyZeroConfigIsPassthrough: the zero FaultConfig must be
// invisible — every broadcast arrives intact.
func TestWrapFaultyZeroConfigIsPassthrough(t *testing.T) {
	const n = 4
	trs, _ := wrapCluster(t, n, ca.FaultConfig{})
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i, tr := range trs {
		wg.Add(1)
		go func(i int, tr *ca.FaultyTransport) {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				out := make([]ca.Packet, n)
				for to := range out {
					out[to] = ca.Packet{To: to, Tag: "p", Payload: []byte{byte(i), byte(r)}}
				}
				in, err := tr.Exchange(out)
				if err != nil {
					errs[i] = err
					return
				}
				if len(in) != n {
					t.Errorf("party %d round %d: %d messages, want %d", i, r, len(in), n)
					return
				}
				for j, m := range in {
					if m.From != j || !bytes.Equal(m.Payload, []byte{byte(j), byte(r)}) {
						t.Errorf("party %d round %d: message %d = %+v", i, r, j, m)
						return
					}
				}
			}
		}(i, tr)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("party %d: %v", i, err)
		}
	}
}

// TestWrapFaultyDropSilencesLink: a certain drop rule on one link removes
// exactly that link's traffic and nothing else.
func TestWrapFaultyDropSilencesLink(t *testing.T) {
	const n = 3
	cfg := ca.FaultConfig{
		Seed:  7,
		Rules: []ca.FaultRule{{Kind: ca.FaultDrop, From: 0, To: 1, Prob: 1}},
	}
	trs, _ := wrapCluster(t, n, cfg)
	var wg sync.WaitGroup
	got := make([][]ca.Message, n)
	for i, tr := range trs {
		wg.Add(1)
		go func(i int, tr *ca.FaultyTransport) {
			defer wg.Done()
			out := make([]ca.Packet, n)
			for to := range out {
				out[to] = ca.Packet{To: to, Tag: "d", Payload: []byte{byte(i)}}
			}
			got[i], _ = tr.Exchange(out)
		}(i, tr)
	}
	wg.Wait()
	for _, m := range got[1] {
		if m.From == 0 {
			t.Fatalf("dropped link 0→1 delivered %+v", m)
		}
	}
	if len(got[1]) != n-1 {
		t.Fatalf("party 1 got %d messages, want %d", len(got[1]), n-1)
	}
	if len(got[2]) != n {
		t.Fatalf("party 2 got %d messages, want %d (only 0→1 is cut)", len(got[2]), n)
	}
}

// TestRunPartyUnderFaults: the full public stack — RunParty over WrapFaulty
// over a local cluster — reaches agreement and convex validity under random
// drops and delays, and two identically-seeded runs replay the same
// transcript.
func TestRunPartyUnderFaults(t *testing.T) {
	const n = 4
	cfg := ca.FaultConfig{
		Seed: 11,
		Rules: []ca.FaultRule{
			{Kind: ca.FaultDrop, From: ca.AnyParty, To: 3, Prob: 0.25},
			{Kind: ca.FaultDelay, From: 3, To: ca.AnyParty, Prob: 0.25, DelayRounds: 2},
		},
		MaxRounds: 5000,
	}
	inputs := []int64{10, 14, 12, 16}

	run := func() ([]*big.Int, []uint64) {
		trs, locals := wrapCluster(t, n, cfg)
		outs := make([]*big.Int, n)
		digests := make([]uint64, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i, tr := range trs {
			wg.Add(1)
			go func(i int, tr *ca.FaultyTransport) {
				defer wg.Done()
				// A party that finishes (or fails) must leave the lock-step
				// cluster so the others' rounds keep closing.
				defer locals[i].Close()
				outs[i], errs[i] = ca.RunParty(tr, ca.ProtoOptimal, 0, big.NewInt(inputs[i]))
				digests[i] = tr.Transcript()
			}(i, tr)
		}
		wg.Wait()
		// All faults land on party 3's links, so it counts against the
		// t = 1 budget: it may fail or diverge, but the clean parties may
		// not.
		for i := 0; i < 3; i++ {
			if errs[i] != nil {
				t.Fatalf("clean party %d: %v", i, errs[i])
			}
		}
		return outs, digests
	}

	outs, digests := run()
	for i := 1; i < 3; i++ {
		if outs[i].Cmp(outs[0]) != 0 {
			t.Fatalf("disagreement under faults: %v vs %v", outs[i], outs[0])
		}
	}
	// Convex validity over the clean parties' inputs {10, 14, 12}.
	if outs[0].Cmp(big.NewInt(10)) < 0 || outs[0].Cmp(big.NewInt(16)) > 0 {
		t.Fatalf("output %v outside input hull", outs[0])
	}
	_, digests2 := run()
	for i := 0; i < 3; i++ {
		if digests[i] != digests2[i] {
			t.Fatalf("party %d transcript differs across identically-seeded runs", i)
		}
	}
}

// TestWrapFaultyValidation is the table-driven gate over FaultConfig: every
// way a schedule can silently misbehave must be rejected with ErrOptions.
func TestWrapFaultyValidation(t *testing.T) {
	locals, err := ca.NewLocalCluster(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, l := range locals {
			l.Close()
		}
	}()
	cases := []struct {
		name string
		cfg  ca.FaultConfig
		ok   bool
	}{
		{name: "zero config", cfg: ca.FaultConfig{}, ok: true},
		{name: "zero MaxRounds means unlimited", cfg: ca.FaultConfig{MaxRounds: 0}, ok: true},
		{name: "negative MaxRounds", cfg: ca.FaultConfig{MaxRounds: -1}},
		{name: "prob 1 inclusive", cfg: ca.FaultConfig{Rules: []ca.FaultRule{
			{Kind: ca.FaultDrop, From: ca.AnyParty, To: ca.AnyParty, Prob: 1}}}, ok: true},
		{name: "negative prob", cfg: ca.FaultConfig{Rules: []ca.FaultRule{
			{Kind: ca.FaultDrop, From: ca.AnyParty, To: ca.AnyParty, Prob: -0.1}}}},
		{name: "prob above 1", cfg: ca.FaultConfig{Rules: []ca.FaultRule{
			{Kind: ca.FaultDrop, From: ca.AnyParty, To: ca.AnyParty, Prob: 1.5}}}},
		{name: "party below AnyParty", cfg: ca.FaultConfig{Rules: []ca.FaultRule{
			{Kind: ca.FaultDrop, From: -2, To: 0, Prob: 1}}}},
		{name: "negative FromRound", cfg: ca.FaultConfig{Rules: []ca.FaultRule{
			{Kind: ca.FaultDrop, From: ca.AnyParty, To: ca.AnyParty, FromRound: -1, Prob: 1}}}},
		{name: "unbounded window", cfg: ca.FaultConfig{Rules: []ca.FaultRule{
			{Kind: ca.FaultDrop, From: ca.AnyParty, To: ca.AnyParty, FromRound: 5, ToRound: 0, Prob: 1}}}, ok: true},
		{name: "empty rule window", cfg: ca.FaultConfig{Rules: []ca.FaultRule{
			{Kind: ca.FaultDrop, From: ca.AnyParty, To: ca.AnyParty, FromRound: 5, ToRound: 5, Prob: 1}}}},
		{name: "negative delay", cfg: ca.FaultConfig{Rules: []ca.FaultRule{
			{Kind: ca.FaultDelay, From: ca.AnyParty, To: ca.AnyParty, Prob: 1, DelayRounds: -1}}}},
		{name: "unknown kind", cfg: ca.FaultConfig{Rules: []ca.FaultRule{
			{Kind: ca.FaultCorrupt + 1, From: ca.AnyParty, To: ca.AnyParty, Prob: 1}}}},
		{name: "empty partition window", cfg: ca.FaultConfig{Partitions: []ca.FaultPartition{
			{FromRound: 3, ToRound: 2, GroupA: []int{0}}}}},
		{name: "negative partition round", cfg: ca.FaultConfig{Partitions: []ca.FaultPartition{
			{FromRound: -2, ToRound: 2, GroupA: []int{0}}}}},
		{name: "valid partition", cfg: ca.FaultConfig{Partitions: []ca.FaultPartition{
			{FromRound: 1, ToRound: 4, GroupA: []int{0, 1}}}}, ok: true},
		{name: "negative crash party", cfg: ca.FaultConfig{Crashes: []ca.FaultCrash{
			{Party: -1, FromRound: 0, ToRound: 2}}}},
		{name: "empty crash window", cfg: ca.FaultConfig{Crashes: []ca.FaultCrash{
			{Party: 0, FromRound: 4, ToRound: 1}}}},
		{name: "negative kill round", cfg: ca.FaultConfig{Kills: []ca.FaultKill{
			{Party: 0, Round: -1}}}},
		{name: "valid kill", cfg: ca.FaultConfig{Kills: []ca.FaultKill{
			{Party: 0, Round: 10}}}, ok: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := ca.WrapFaulty(locals[0], tc.cfg)
			if tc.ok {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if tr == nil {
					t.Fatal("nil transport on success")
				}
				return
			}
			if !errors.Is(err, ca.ErrOptions) {
				t.Fatalf("err = %v, want ErrOptions", err)
			}
		})
	}
}

// TestFaultLiteralsStillCompile: the fault-schedule types are aliases of the
// injector's own, and every literal a caller could have written against the
// mirror structs — field names, untyped constants, typed kinds — keeps
// compiling and keeps its meaning. The wrapper copies the schedule, so a
// caller editing its FaultConfig afterwards (GroupA included) changes
// nothing.
func TestFaultLiteralsStillCompile(t *testing.T) {
	var kind ca.FaultKind = ca.FaultDelay
	cfg := ca.FaultConfig{
		Seed: 3,
		Rules: []ca.FaultRule{
			{Kind: kind, From: ca.AnyParty, To: 1, FromRound: 1, ToRound: 9, Prob: 0.5, DelayRounds: 2},
			{Kind: ca.FaultDrop}, {Kind: ca.FaultDuplicate}, {Kind: ca.FaultCorrupt},
		},
		Partitions: []ca.FaultPartition{{FromRound: 0, ToRound: 1, GroupA: []int{0}}},
		Crashes:    []ca.FaultCrash{{Party: 2, FromRound: 5, ToRound: 6}},
		Kills:      []ca.FaultKill{{Party: 2, Round: 50}},
		MaxRounds:  100,
	}
	if ca.AnyParty != -1 || ca.FaultDrop != 0 || ca.FaultDelay != 1 || ca.FaultDuplicate != 2 || ca.FaultCorrupt != 3 {
		t.Fatal("fault constants changed value")
	}
	var _ ca.RoundStats = ca.RoundStats{Round: 1, Messages: 2, HonestBits: 3, CorruptBits: 4}
	var _ ca.SessionMuxStats = ca.SessionMuxStats{Ticks: 1, Packets: 2, BytesReferenced: 3, BytesCopied: 4, SessionShed: 5, TickShed: 6}

	// Round 0 is partitioned {0} | {1, 2}; party 0 hears only itself.
	locals, err := ca.NewLocalCluster(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	trs := make([]*ca.FaultyTransport, len(locals))
	for i, l := range locals {
		if trs[i], err = ca.WrapFaulty(l, cfg); err != nil {
			t.Fatal(err)
		}
	}
	cfg.Partitions[0].GroupA[0] = 1
	cfg.Partitions[0].ToRound = 0
	heard := make([]int, len(locals))
	var wg sync.WaitGroup
	for i, tr := range trs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer locals[i].Close()
			out := make([]ca.Packet, len(locals))
			for to := range out {
				out[to] = ca.Packet{To: to, Payload: []byte{byte(i)}}
			}
			in, err := tr.Exchange(out)
			if err != nil {
				t.Error(err)
			}
			heard[i] = len(in)
		}()
	}
	wg.Wait()
	if heard[0] != 1 || heard[1] != 2 || heard[2] != 2 {
		t.Fatalf("partition {0} | {1, 2}: parties heard %v messages, want [1 2 2]", heard)
	}
}
