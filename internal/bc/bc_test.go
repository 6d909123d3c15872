package bc_test

import (
	"bytes"
	"math/rand"
	"testing"

	"convexagreement/internal/adversary"
	"convexagreement/internal/bc"
	"convexagreement/internal/sim"
	"convexagreement/internal/testutil"
	"convexagreement/internal/transport"
)

type bcOut struct {
	val string
	ok  bool
}

func runBC(t *testing.T, n, tc int, sender int, values [][]byte, corrupt map[int]sim.Behavior) bcOut {
	t.Helper()
	res, err := sim.Collect(sim.Config{N: n, T: tc}, corrupt,
		func(env *sim.Env) (bcOut, error) {
			v, ok, err := bc.Broadcast(env, "bc", transport.PartyID(sender), values[env.ID()])
			return bcOut{val: string(v), ok: ok}, err
		})
	if err != nil {
		t.Fatal(err)
	}
	out, err := testutil.AgreeValue(res)
	if err != nil {
		t.Fatalf("agreement violated: %v", err)
	}
	return out
}

func TestValidityHonestSender(t *testing.T) {
	for _, n := range []int{4, 7, 10} {
		tc := (n - 1) / 3
		values := make([][]byte, n)
		values[2] = []byte("the broadcast payload 0123456789")
		got := runBC(t, n, tc, 2, values, nil)
		if !got.ok || got.val != string(values[2]) {
			t.Errorf("n=%d: validity violated: (%q, %v)", n, got.val, got.ok)
		}
	}
}

func TestLargeValue(t *testing.T) {
	n, tc := 7, 2
	values := make([][]byte, n)
	big := make([]byte, 32<<10)
	rand.New(rand.NewSource(6)).Read(big)
	values[0] = big
	got := runBC(t, n, tc, 0, values, nil)
	if !got.ok || !bytes.Equal([]byte(got.val), big) {
		t.Fatal("32KiB broadcast failed")
	}
}

func TestByzantineSenderStaysConsistent(t *testing.T) {
	// The sender runs every adversarial strategy; honest parties must stay
	// in agreement (ok=false and any common value are both legal).
	for _, strat := range adversary.Catalog() {
		n, tc := 7, 2
		values := make([][]byte, n)
		corrupt := map[int]sim.Behavior{3: strat.Build(11)}
		got := runBC(t, n, tc, 3, values, corrupt)
		_ = got // agreement already asserted inside runBC
	}
}

func TestEquivocatingGhostSender(t *testing.T) {
	// A sender that runs the protocol honestly except disseminating
	// different values to different parties in round 1.
	n, tc := 7, 2
	values := make([][]byte, n)
	corrupt := map[int]sim.Behavior{0: sim.Ghost(func(env *sim.Env) error {
		// Round 1: equivocate A/B by recipient parity, with valid framing.
		out := make([]transport.Packet, n)
		for to := 0; to < n; to++ {
			payload := append([]byte{1}, byte('A'+to%2))
			out[to] = transport.Packet{To: transport.PartyID(to), Tag: "adv", Payload: payload}
		}
		if _, err := env.Exchange(out); err != nil {
			return err
		}
		// Then follow the protocol honestly for the agreement part.
		_, _, err := bc.Broadcast(env, "bc-ignored", 99, nil)
		return err
	})}
	got := runBC(t, n, tc, 0, values, corrupt)
	// Consistency is asserted inside runBC; additionally, any delivered
	// value must be one of the two equivocated ones.
	if got.ok && got.val != "A" && got.val != "B" {
		t.Errorf("delivered %q, not an equivocated value", got.val)
	}
}

func TestSilentSenderDeliversNothingButConsistently(t *testing.T) {
	n, tc := 7, 2
	values := make([][]byte, n)
	corrupt := map[int]sim.Behavior{5: adversary.Silent()}
	got := runBC(t, n, tc, 5, values, corrupt)
	if got.ok {
		t.Errorf("silent sender delivered %q", got.val)
	}
}
