package baplus_test

import (
	"bytes"
	"fmt"
	"testing"

	"convexagreement/internal/baplus"
	"convexagreement/internal/sim"
)

func TestLongNaiveSameGuaranteesAsLong(t *testing.T) {
	// Reuse the whole property battery by treating LongNaive as another
	// runner (validity here; the shared campaigns run in baplus_test.go).
	for _, n := range []int{4, 7} {
		tc := (n - 1) / 3
		inputs := make([][]byte, n)
		for i := range inputs {
			inputs[i] = []byte("the shared long value 0123456789 0123456789")
		}
		got := runProto(t, baplus.LongNaive, n, tc, inputs, nil)
		if !got.ok || got.val != string(inputs[0]) {
			t.Errorf("n=%d: validity violated", n)
		}
	}
}

func TestLongNaiveIntrusionTolerance(t *testing.T) {
	n, tc := 7, 2
	corrupt := map[int]sim.Behavior{
		1: ghostWithInput(baplus.LongNaive, []byte("POISON")),
		4: ghostWithInput(baplus.LongNaive, []byte("POISON")),
	}
	inputs := make([][]byte, n)
	honest := map[string]bool{}
	for i := range inputs {
		inputs[i] = []byte(fmt.Sprintf("hv-%d", i%2))
		if _, bad := corrupt[i]; !bad {
			honest[string(inputs[i])] = true
		}
	}
	got := runProto(t, baplus.LongNaive, n, tc, inputs, corrupt)
	if got.ok && !honest[got.val] {
		t.Errorf("intruded value %q", got.val)
	}
}

// TestNaiveCostsQuadraticInN is the point of the ablation: on a shared
// long value, LongNaive's bits grow ≈ n× faster than Long's.
func TestNaiveCostsQuadraticInN(t *testing.T) {
	const ellBytes = 8 << 10
	value := bytes.Repeat([]byte{0xAB}, ellBytes)
	bitsOf := func(n int, proto runner) int64 {
		tc := (n - 1) / 3
		inputs := make([][]byte, n)
		for i := range inputs {
			inputs[i] = value
		}
		res, err := sim.Collect(sim.Config{N: n, T: tc}, nil,
			func(env *sim.Env) (bool, error) {
				_, ok, err := proto(env, "p", inputs[env.ID()])
				return ok, err
			})
		if err != nil {
			t.Fatal(err)
		}
		return res.Report.HonestBits
	}
	nSmall, nBig := 4, 10
	codedGrowth := float64(bitsOf(nBig, baplus.Long)) / float64(bitsOf(nSmall, baplus.Long))
	naiveGrowth := float64(bitsOf(nBig, baplus.LongNaive)) / float64(bitsOf(nSmall, baplus.LongNaive))
	// n grew 2.5×: coded dispersal should grow ≈ linearly (≲4×), naive
	// ≈ quadratically (≳5×).
	if codedGrowth > 4.5 {
		t.Errorf("coded dispersal grew %.1f× for 2.5× n", codedGrowth)
	}
	if naiveGrowth < 5 {
		t.Errorf("naive dispersal grew only %.1f× for 2.5× n", naiveGrowth)
	}
	if naiveGrowth < codedGrowth*1.5 {
		t.Errorf("ablation gap too small: naive %.1f× vs coded %.1f×", naiveGrowth, codedGrowth)
	}
}
