package faultnet_test

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"convexagreement/internal/channet"
	"convexagreement/internal/faultnet"
	"convexagreement/internal/transport"
)

// runCluster executes fns over a channet hub, each party's Net wrapped by
// wrap (identity when nil).
func runCluster(t *testing.T, n int, wrap func(transport.Net) transport.Net, fns []func(net transport.Net) error) {
	t.Helper()
	hub, err := channet.NewHub(n, (n-1)/3)
	if err != nil {
		t.Fatal(err)
	}
	wrapped := make([]func(net transport.Net) error, n)
	for i := range fns {
		fn := fns[i]
		wrapped[i] = func(net transport.Net) error {
			if wrap != nil {
				net = wrap(net)
			}
			return fn(net)
		}
	}
	if err := hub.Run(wrapped); err != nil {
		t.Fatal(err)
	}
}

// collect runs `rounds` all-to-all rounds at every party and returns each
// party's full inbox history. An inbox lives only until the next Exchange
// (the hub refills its slice), so each is copied; the payloads are the
// senders' own, fresh every round.
func collect(t *testing.T, n, rounds int, wrap func(transport.Net) transport.Net) [][][]transport.Message {
	t.Helper()
	history := make([][][]transport.Message, n)
	fns := make([]func(net transport.Net) error, n)
	for i := 0; i < n; i++ {
		id := i
		fns[i] = func(net transport.Net) error {
			for r := 0; r < rounds; r++ {
				in, err := transport.ExchangeAll(net, "t", []byte{byte(id), byte(r), 0xAB}, nil)
				if err != nil {
					return err
				}
				history[id] = append(history[id], slices.Clone(in))
			}
			return nil
		}
	}
	runCluster(t, n, wrap, fns)
	return history
}

// TestDisabledPlanIsByteIdenticalPassthrough is the golden test: with every
// fault disabled the wrapper must deliver exactly what the bare transport
// delivers, byte for byte.
func TestDisabledPlanIsByteIdenticalPassthrough(t *testing.T) {
	const n, rounds = 4, 5
	bare := collect(t, n, rounds, nil)
	wrapped := collect(t, n, rounds, func(net transport.Net) transport.Net {
		return faultnet.Wrap(net, &faultnet.Plan{Seed: 99})
	})
	for id := 0; id < n; id++ {
		if len(bare[id]) != len(wrapped[id]) {
			t.Fatalf("party %d: %d vs %d rounds", id, len(bare[id]), len(wrapped[id]))
		}
		for r := range bare[id] {
			if len(bare[id][r]) != len(wrapped[id][r]) {
				t.Fatalf("party %d round %d: %d vs %d messages", id, r, len(bare[id][r]), len(wrapped[id][r]))
			}
			for k := range bare[id][r] {
				b, w := bare[id][r][k], wrapped[id][r][k]
				if b.From != w.From || !bytes.Equal(b.Payload, w.Payload) {
					t.Fatalf("party %d round %d msg %d: %v != %v", id, r, k, b, w)
				}
			}
		}
	}
}

func TestDropAllSilencesLink(t *testing.T) {
	const n, rounds = 3, 4
	plan := &faultnet.Plan{Seed: 1, Rules: []faultnet.Rule{
		{Kind: faultnet.Drop, From: 0, To: faultnet.Any, Prob: 1},
	}}
	hist := collect(t, n, rounds, func(net transport.Net) transport.Net { return faultnet.Wrap(net, plan) })
	for id := 1; id < n; id++ {
		for r, in := range hist[id] {
			for _, m := range in {
				if m.From == 0 {
					t.Fatalf("party %d round %d still heard from 0", id, r)
				}
			}
		}
	}
	// Party 0 still hears itself (self-delivery exempt from link faults).
	for r, in := range hist[0] {
		self := 0
		for _, m := range in {
			if m.From == 0 {
				self++
			}
		}
		if self != 1 {
			t.Fatalf("party 0 round %d: %d self messages", r, self)
		}
	}
}

func TestDelaySlidesIntoLaterRound(t *testing.T) {
	const n, rounds = 3, 5
	plan := &faultnet.Plan{Seed: 7, Rules: []faultnet.Rule{
		{Kind: faultnet.Delay, From: 0, To: 1, Prob: 1, DelayRounds: 2},
	}}
	hist := collect(t, n, rounds, func(net transport.Net) transport.Net { return faultnet.Wrap(net, plan) })
	// Party 1's inbox: payloads from 0 must carry round stamps two behind
	// the round they arrive in.
	for r, in := range hist[1] {
		for _, m := range in {
			if m.From != 0 {
				continue
			}
			if int(m.Payload[1]) != r-2 {
				t.Fatalf("round %d: payload from 0 stamped %d, want %d", r, m.Payload[1], r-2)
			}
		}
	}
	// Party 2 gets 0's traffic undelayed.
	for r, in := range hist[2] {
		seen := false
		for _, m := range in {
			if m.From == 0 && int(m.Payload[1]) == r {
				seen = true
			}
		}
		if !seen {
			t.Fatalf("round %d: party 2 missing fresh payload from 0", r)
		}
	}
}

func TestDuplicateDoublesDelivery(t *testing.T) {
	const n, rounds = 3, 3
	plan := &faultnet.Plan{Seed: 3, Rules: []faultnet.Rule{
		{Kind: faultnet.Duplicate, From: 0, To: 2, Prob: 1},
	}}
	hist := collect(t, n, rounds, func(net transport.Net) transport.Net { return faultnet.Wrap(net, plan) })
	for r, in := range hist[2] {
		from0 := 0
		for _, m := range in {
			if m.From == 0 {
				from0++
			}
		}
		if from0 != 2 {
			t.Fatalf("round %d: %d copies from 0, want 2", r, from0)
		}
	}
}

func TestCorruptFlipsBytesNotOriginals(t *testing.T) {
	const n, rounds = 2, 3
	plan := &faultnet.Plan{Seed: 5, Rules: []faultnet.Rule{
		{Kind: faultnet.Corrupt, From: 0, To: 1, Prob: 1},
	}}
	hist := collect(t, n, rounds, func(net transport.Net) transport.Net { return faultnet.Wrap(net, plan) })
	for r, in := range hist[1] {
		for _, m := range in {
			if m.From != 0 {
				continue
			}
			want := []byte{0, byte(r), 0xAB}
			if bytes.Equal(m.Payload, want) {
				t.Fatalf("round %d: payload from 0 not corrupted", r)
			}
			if len(m.Payload) != len(want) {
				t.Fatalf("round %d: corruption changed length", r)
			}
		}
	}
	// Party 0's self-copy must be pristine: corruption works on a copy.
	for r, in := range hist[0] {
		for _, m := range in {
			if m.From == 0 && !bytes.Equal(m.Payload, []byte{0, byte(r), 0xAB}) {
				t.Fatalf("round %d: sender's own buffer corrupted", r)
			}
		}
	}
}

func TestPartitionCutsAndHeals(t *testing.T) {
	const n, rounds = 4, 6
	plan := &faultnet.Plan{Seed: 11, Partitions: []faultnet.Partition{
		{FromRound: 1, ToRound: 4, GroupA: []int{0, 1}},
	}}
	hist := collect(t, n, rounds, func(net transport.Net) transport.Net { return faultnet.Wrap(net, plan) })
	for r := 0; r < rounds; r++ {
		crossDelivered := false
		for _, m := range hist[2][r] {
			if m.From == 0 || m.From == 1 {
				crossDelivered = true
			}
		}
		cut := r >= 1 && r < 4
		if cut && crossDelivered {
			t.Fatalf("round %d: partition leaked", r)
		}
		if !cut && !crossDelivered {
			t.Fatalf("round %d: healed partition still cut", r)
		}
		// Same-side traffic always flows.
		sameSide := false
		for _, m := range hist[0][r] {
			if m.From == 1 {
				sameSide = true
			}
		}
		if !sameSide {
			t.Fatalf("round %d: same-side link cut", r)
		}
	}
}

func TestCrashWindowSilencesAndRestarts(t *testing.T) {
	const n, rounds = 3, 6
	plan := &faultnet.Plan{Seed: 13, Crashes: []faultnet.Crash{
		{Party: 1, FromRound: 2, ToRound: 4},
	}}
	hist := collect(t, n, rounds, func(net transport.Net) transport.Net { return faultnet.Wrap(net, plan) })
	for r := 0; r < rounds; r++ {
		heard := false
		for _, m := range hist[0][r] {
			if m.From == 1 {
				heard = true
			}
		}
		inWindow := r >= 2 && r < 4
		if inWindow && heard {
			t.Fatalf("round %d: crashed party still sending", r)
		}
		if !inWindow && !heard {
			t.Fatalf("round %d: restarted party silent", r)
		}
		// The crashed party receives nothing during the window.
		if inWindow && len(hist[1][r]) != 0 {
			t.Fatalf("round %d: crashed party received %d messages", r, len(hist[1][r]))
		}
		if !inWindow && len(hist[1][r]) == 0 {
			t.Fatalf("round %d: restarted party received nothing", r)
		}
	}
}

func TestRoundLimitSurfacesAsError(t *testing.T) {
	hub, err := channet.NewHub(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	plan := &faultnet.Plan{MaxRounds: 3}
	fns := make([]func(net transport.Net) error, 2)
	for i := range fns {
		fns[i] = func(net transport.Net) error {
			f := faultnet.Wrap(net, plan)
			for r := 0; ; r++ {
				if _, err := transport.ExchangeAll(f, "x", []byte{1}, nil); err != nil {
					if !errors.Is(err, faultnet.ErrRoundLimit) {
						return fmt.Errorf("round %d: %w", r, err)
					}
					if r != 3 {
						return fmt.Errorf("limit hit at round %d, want 3", r)
					}
					return nil
				}
			}
		}
	}
	if err := hub.Run(fns); err != nil {
		t.Fatal(err)
	}
}

// TestSeedDeterminism: identical plans and seeds reproduce identical
// transcripts at every party; a different seed lands differently.
func TestSeedDeterminism(t *testing.T) {
	run := func(seed int64) []uint64 {
		const n, rounds = 4, 6
		digests := make([]uint64, n)
		plan := &faultnet.Plan{Seed: seed, Rules: []faultnet.Rule{
			{Kind: faultnet.Drop, From: faultnet.Any, To: faultnet.Any, Prob: 0.3},
			{Kind: faultnet.Corrupt, From: 2, To: faultnet.Any, Prob: 0.5},
			{Kind: faultnet.Delay, From: 1, To: faultnet.Any, Prob: 0.4},
		}}
		fns := make([]func(net transport.Net) error, n)
		for i := 0; i < n; i++ {
			id := i
			fns[i] = func(net transport.Net) error {
				f := faultnet.Wrap(net, plan)
				for r := 0; r < rounds; r++ {
					if _, err := transport.ExchangeAll(f, "d", []byte{byte(id), byte(r)}, nil); err != nil {
						return err
					}
				}
				digests[id] = f.Transcript()
				return nil
			}
		}
		runCluster(t, n, nil, fns)
		return digests
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("party %d: same seed, transcripts %x != %x", i, a[i], b[i])
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical fault patterns")
	}
}

// fakeNet is a minimal inner transport for unit-testing wrapper logic
// without a hub: Exchange loops back self-addressed packets.
type fakeNet struct {
	id, n, t  int
	exchanges int
}

func (f *fakeNet) ID() transport.PartyID { return transport.PartyID(f.id) }
func (f *fakeNet) N() int                { return f.n }
func (f *fakeNet) T() int                { return f.t }
func (f *fakeNet) Exchange(out []transport.Packet) ([]transport.Message, error) {
	f.exchanges++
	var in []transport.Message
	for _, p := range out {
		if int(p.To) == f.id {
			in = append(in, transport.Message{From: p.To, Payload: p.Payload})
		}
	}
	return in, nil
}

func TestKillFiresOnceBeforeInnerExchange(t *testing.T) {
	inner := &fakeNet{id: 2, n: 4, t: 1}
	plan := &faultnet.Plan{Kills: []faultnet.Kill{{Party: 2, Round: 3}}}
	net := faultnet.Wrap(inner, plan)
	for r := 0; r < 3; r++ {
		if _, err := net.Exchange(nil); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
	}
	if _, err := net.Exchange(nil); !errors.Is(err, faultnet.ErrKilled) {
		t.Fatalf("round 3: err = %v, want ErrKilled", err)
	}
	if inner.exchanges != 3 {
		t.Errorf("inner saw %d exchanges, want 3 (kill fires before the inner call)", inner.exchanges)
	}
	if net.Round() != 3 {
		t.Errorf("round after kill = %d, want 3 (the killed round never completed)", net.Round())
	}
	// The kill is one-shot on this wrapper: a retry on the SAME wrapper
	// proceeds (in-process resume over a live connection).
	if _, err := net.Exchange(nil); err != nil {
		t.Fatalf("retry after kill: %v", err)
	}
	if net.Round() != 4 {
		t.Errorf("round after retry = %d, want 4", net.Round())
	}
}

func TestKillOtherPartyUnaffected(t *testing.T) {
	inner := &fakeNet{id: 0, n: 4, t: 1}
	plan := &faultnet.Plan{Kills: []faultnet.Kill{{Party: 2, Round: 1}}}
	net := faultnet.Wrap(inner, plan)
	for r := 0; r < 4; r++ {
		if _, err := net.Exchange(nil); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
	}
}

func TestWrapAtConsumesEarlierKills(t *testing.T) {
	plan := &faultnet.Plan{Kills: []faultnet.Kill{
		{Party: 1, Round: 2},
		{Party: 1, Round: 5},
	}}
	// Restart at round 2 — exactly where the first kill struck. That kill
	// must be consumed (it is what put us here); the later one still fires.
	net := faultnet.WrapAt(&fakeNet{id: 1, n: 4, t: 1}, plan, 2)
	if got := net.Round(); got != 2 {
		t.Fatalf("resumed round = %d, want 2", got)
	}
	for r := 2; r < 5; r++ {
		if _, err := net.Exchange(nil); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
	}
	if _, err := net.Exchange(nil); !errors.Is(err, faultnet.ErrKilled) {
		t.Fatalf("round 5: err = %v, want ErrKilled", err)
	}
}

func TestKillInClusterOthersFinish(t *testing.T) {
	// Party 3 is killed at round 2; the remaining parties must still close
	// their rounds (the hub retires the leaver) and finish 6 rounds.
	n := 4
	plan := &faultnet.Plan{Kills: []faultnet.Kill{{Party: 3, Round: 2}}}
	fns := make([]func(net transport.Net) error, n)
	for i := 0; i < n; i++ {
		id := i
		fns[i] = func(net transport.Net) error {
			for r := 0; r < 6; r++ {
				_, err := transport.ExchangeAll(net, "t", []byte{byte(id), byte(r)}, nil)
				if id == 3 && r == 2 {
					if !errors.Is(err, faultnet.ErrKilled) {
						return fmt.Errorf("party 3 round 2: err = %v, want ErrKilled", err)
					}
					return nil
				}
				if err != nil {
					return err
				}
			}
			return nil
		}
	}
	runCluster(t, n, func(inner transport.Net) transport.Net {
		return faultnet.Wrap(inner, plan)
	}, fns)
}
