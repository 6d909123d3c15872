package rs_test

import (
	"bytes"
	"testing"

	"convexagreement/internal/adversary"
	"convexagreement/internal/baplus"
	"convexagreement/internal/gf16"
	"convexagreement/internal/rs"
	"convexagreement/internal/sim"
	"convexagreement/internal/testutil"
)

// TestSharedCodecIsPerShape: one codec per (n, k), the same one every time,
// invalid parameters refused, and the cache bounded — a shape pushed out by
// sharedCodecs newer ones is rebuilt, not kept forever.
func TestSharedCodecIsPerShape(t *testing.T) {
	a, err := rs.SharedCodec(12, 8)
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := rs.SharedCodec(12, 8); b != a {
		t.Fatal("the same shape got a second codec")
	}
	if b, _ := rs.SharedCodec(12, 9); b == a || b.K() != 9 {
		t.Fatal("a different shape got the same codec")
	}
	if _, err := rs.SharedCodec(3, 4); err == nil {
		t.Fatal("k > n accepted")
	}
	for k := 1; k <= 8; k++ { // more shapes than the cache holds
		if _, err := rs.SharedCodec(13, k); err != nil {
			t.Fatal(err)
		}
	}
	if b, _ := rs.SharedCodec(12, 8); b == a {
		t.Fatal("the cache is unbounded: an evicted shape kept its codec")
	}
}

// TestLongSharesOneCodec: two Π_ℓBA+ runs at the same (n, t) go through the
// one shared codec, and the second builds nothing — not the encode tables,
// not the decode plan for the erasure pattern the first run already met (a
// silent party 0 withholds a data share, so every decode interpolates).
func TestLongSharesOneCodec(t *testing.T) {
	if !gf16.HasFastPath() {
		t.Skip("the reference engine has no tables to share")
	}
	const n, tc = 10, 3 // a shape nothing else in this test binary asks the cache for
	codec, err := rs.SharedCodec(n, n-tc)
	if err != nil {
		t.Fatal(err)
	}
	if codec.EncTabs() != nil || codec.Plans() != 0 {
		t.Fatal("the shape is not fresh; pick another")
	}
	value := bytes.Repeat([]byte("shared"), 100)
	long := func() {
		t.Helper()
		res, err := sim.Collect(sim.Config{N: n, T: tc}, map[int]sim.Behavior{0: adversary.Silent()},
			func(env *sim.Env) (string, error) {
				out, _, err := baplus.Long(env, "t", value)
				return string(out), err
			})
		if err != nil {
			t.Fatal(err)
		}
		if got, err := testutil.AgreeValue(res); err != nil || got != string(value) {
			t.Fatalf("Long agreed on %q (%v)", got, err)
		}
	}
	long()
	tabs, plans := codec.EncTabs(), codec.Plans()
	if tabs == nil || plans == 0 {
		t.Fatalf("Long did not go through the shared codec (tables built: %v, plans: %d)", tabs != nil, plans)
	}
	long()
	if again := codec.EncTabs(); &again[0] != &tabs[0] || codec.Plans() != plans {
		t.Fatalf("the second run rebuilt: tables moved %v, plans %d → %d", &again[0] != &tabs[0], plans, codec.Plans())
	}
	if again, _ := rs.SharedCodec(n, n-tc); again != codec {
		t.Fatal("the shape got a second codec")
	}
}
