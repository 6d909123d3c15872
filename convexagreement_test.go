package convexagreement_test

import (
	"errors"
	"math/big"
	"math/rand"
	"net"
	"sync"
	"testing"
	"testing/quick"
	"time"

	ca "convexagreement"
)

func ints(vals ...int64) []*big.Int {
	out := make([]*big.Int, len(vals))
	for i, v := range vals {
		out[i] = big.NewInt(v)
	}
	return out
}

func TestAgreeDefaults(t *testing.T) {
	res, err := ca.Agree(ints(10, 20, 30, 40), ca.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output == nil || !ca.InHull(res.Output, ints(10, 20, 30, 40)) {
		t.Fatalf("output %v outside hull", res.Output)
	}
	if len(res.Outputs) != 4 {
		t.Errorf("%d outputs", len(res.Outputs))
	}
	if res.Rounds == 0 || res.HonestBits == 0 || len(res.BitsByLabel) == 0 {
		t.Error("cost report incomplete")
	}
	// Every step of Π_ℤ has honest senders at f = 0: the per-label rounds
	// account for all of them.
	sum := 0
	for _, r := range res.RoundsByLabel {
		sum += r
	}
	if sum != res.Rounds {
		t.Errorf("RoundsByLabel adds up to %d of %d rounds", sum, res.Rounds)
	}
}

func TestAgreeAllProtocols(t *testing.T) {
	for _, proto := range ca.Protocols() {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			opts := ca.Options{Protocol: proto}
			if proto.NeedsWidth() {
				opts.Width = 7 * 7 // n = 7 → n² = 49, valid for both fixed variants
			}
			inputs := ints(100, 120, 101, 130, 99, 115, 107)
			res, err := ca.Agree(inputs, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !ca.InHull(res.Output, inputs) {
				t.Fatalf("output %v outside hull", res.Output)
			}
		})
	}
}

func TestAgreeWithAllAdversaryKinds(t *testing.T) {
	for _, kind := range ca.AdversaryKinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			inputs := ints(50, 55, 60, 52, 58, 54, 51)
			honest := []*big.Int{}
			corr := map[int]ca.Corruption{
				2: {Kind: kind, Input: big.NewInt(1 << 40)},
				5: {Kind: kind, Input: big.NewInt(-1 << 40)},
			}
			for i, v := range inputs {
				if _, bad := corr[i]; !bad {
					honest = append(honest, v)
				}
			}
			res, err := ca.Agree(inputs, ca.Options{Corruptions: corr, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			if !ca.InHull(res.Output, honest) {
				t.Fatalf("output %v escaped honest hull under %s", res.Output, kind)
			}
		})
	}
}

func TestAgreeOptionValidation(t *testing.T) {
	cases := []struct {
		name   string
		inputs []*big.Int
		opts   ca.Options
	}{
		{"no-inputs", nil, ca.Options{}},
		{"bad-t", ints(1, 2, 3), ca.Options{T: 1}},
		{"too-many-corruptions", ints(1, 2, 3, 4), ca.Options{Corruptions: map[int]ca.Corruption{0: {Kind: ca.AdvSilent}, 1: {Kind: ca.AdvSilent}}}},
		{"corruption-out-of-range", ints(1, 2, 3, 4), ca.Options{Corruptions: map[int]ca.Corruption{9: {Kind: ca.AdvSilent}}}},
		{"nil-input", []*big.Int{big.NewInt(1), nil, big.NewInt(2), big.NewInt(3)}, ca.Options{}},
		{"negative-for-nat", ints(-1, 2, 3, 4), ca.Options{Protocol: ca.ProtoOptimalNat}},
		{"missing-width", ints(1, 2, 3, 4), ca.Options{Protocol: ca.ProtoFixedLength}},
		{"unknown-protocol", ints(1, 2, 3, 4), ca.Options{Protocol: "nope"}},
		{"ghost-without-input", ints(1, 2, 3, 4), ca.Options{Corruptions: map[int]ca.Corruption{0: {Kind: ca.AdvGhost}}}},
		{"unknown-adversary", ints(1, 2, 3, 4), ca.Options{Corruptions: map[int]ca.Corruption{0: {Kind: "nope"}}}},
	}
	for _, tc := range cases {
		if _, err := ca.Agree(tc.inputs, tc.opts); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestAgreePropertyRandomized(t *testing.T) {
	// testing/quick over the full public surface: random sizes, inputs,
	// adversary kinds and placements; Agreement + Convex Validity always.
	kinds := ca.AdversaryKinds()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(7)
		tc := (n - 1) / 3
		inputs := make([]*big.Int, n)
		for i := range inputs {
			inputs[i] = big.NewInt(int64(rng.Intn(1<<30)) - (1 << 29))
		}
		corr := map[int]ca.Corruption{}
		for len(corr) < rng.Intn(tc+1) {
			corr[rng.Intn(n)] = ca.Corruption{
				Kind:  kinds[rng.Intn(len(kinds))],
				Input: big.NewInt(int64(rng.Uint32()) - (1 << 31)),
			}
		}
		var honest []*big.Int
		for i, v := range inputs {
			if _, bad := corr[i]; !bad {
				honest = append(honest, v)
			}
		}
		res, err := ca.Agree(inputs, ca.Options{Corruptions: corr, Seed: seed})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return ca.InHull(res.Output, honest)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestHullHelpers(t *testing.T) {
	lo, hi, err := ca.Hull(ints(5, -3, 9, 0))
	if err != nil {
		t.Fatal(err)
	}
	if lo.Int64() != -3 || hi.Int64() != 9 {
		t.Errorf("hull = [%v, %v]", lo, hi)
	}
	if _, _, err := ca.Hull(nil); err == nil {
		t.Error("empty hull accepted")
	}
	if _, _, err := ca.Hull([]*big.Int{nil}); err == nil {
		t.Error("nil value accepted")
	}
	if !ca.InHull(big.NewInt(0), ints(-1, 1)) || ca.InHull(big.NewInt(2), ints(-1, 1)) {
		t.Error("InHull wrong")
	}
	if ca.InHull(nil, ints(1)) {
		t.Error("nil value in hull")
	}
}

// TestRunPartyOverTCP runs every protocol end to end over a loopback TCP
// mesh, whose inboxes alias pooled frames that the next round reuses: the
// cheapest witness that no protocol reads a payload past its lifetime.
func TestRunPartyOverTCP(t *testing.T) {
	for _, proto := range ca.Protocols() {
		t.Run(string(proto), func(t *testing.T) { runPartyOverTCP(t, proto) })
	}
}

func runPartyOverTCP(t *testing.T, proto ca.Protocol) {
	n := 4
	addrs := make([]string, n)
	listeners := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	inputs := ints(7, 2, 4, 9)
	if proto.AcceptsNegative() {
		inputs = ints(7, -2, 4, 9)
	}
	width := 0
	if proto.NeedsWidth() {
		width = 16
	}
	outputs := make([]*big.Int, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr, err := ca.DialTCP(ca.TCPConfig{
				ID: i, Addrs: addrs, Delta: 3 * time.Second, Listener: listeners[i],
			})
			if err != nil {
				errs[i] = err
				return
			}
			defer tr.Close()
			outputs[i], errs[i] = ca.RunParty(tr, proto, width, inputs[i])
		}(i)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("party %d: %v", i, errs[i])
		}
	}
	for i := 1; i < n; i++ {
		if outputs[i].Cmp(outputs[0]) != 0 {
			t.Fatalf("disagreement: %v vs %v", outputs[i], outputs[0])
		}
	}
	if !ca.InHull(outputs[0], inputs) {
		t.Fatalf("output %v outside hull", outputs[0])
	}
}

func TestRunPartyValidation(t *testing.T) {
	if _, err := ca.RunParty(nil, ca.ProtoOptimal, 0, nil); err == nil {
		t.Error("nil input accepted")
	}
	if _, err := ca.RunParty(nil, ca.ProtoOptimalNat, 0, big.NewInt(-1)); err == nil {
		t.Error("negative nat accepted")
	}
	if _, err := ca.RunParty(nil, ca.ProtoFixedLength, 0, big.NewInt(1)); err == nil {
		t.Error("missing width accepted")
	}
	// HIGHCOSTCA takes a natural as its bytes, which cannot be negative:
	// the edge rejects a negative or nil input before converting it.
	for _, v := range []*big.Int{big.NewInt(-3), nil} {
		inputs := []*big.Int{big.NewInt(1), big.NewInt(2), big.NewInt(3), v}
		if _, err := ca.Agree(inputs, ca.Options{Protocol: ca.ProtoHighCost}); !errors.Is(err, ca.ErrOptions) {
			t.Errorf("ProtoHighCost on input %v: %v, want ErrOptions", v, err)
		}
	}
}

func TestProtocolMetadata(t *testing.T) {
	if !ca.ProtoOptimal.AcceptsNegative() || ca.ProtoHighCost.AcceptsNegative() {
		t.Error("AcceptsNegative wrong")
	}
	if !ca.ProtoFixedLength.NeedsWidth() || ca.ProtoOptimal.NeedsWidth() {
		t.Error("NeedsWidth wrong")
	}
	if len(ca.Protocols()) < 6 || len(ca.AdversaryKinds()) < 7 {
		t.Error("catalogs incomplete")
	}
}
