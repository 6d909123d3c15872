package core_test

import (
	"math/big"
	"testing"

	"convexagreement/internal/core"
	"convexagreement/internal/sim"
	"convexagreement/internal/testutil"
)

// TestAddLastBitLemma2 exercises ADDLASTBIT in isolation with crafted
// preconditions: all honest parties share the prefix "10" and hold valid
// 6-bit values extending it; the extended prefix, which AddLastBit writes
// into the value, must be agreed and must be an honest value's prefix.
func TestAddLastBitLemma2(t *testing.T) {
	prefix := testutil.MustParse("10")
	// Values: two parties extend with 0, two with 1.
	vals := []string{"100110", "100011", "101100", "101010"}
	res, err := sim.Collect(sim.Config{N: 4, T: 1}, nil,
		func(env *sim.Env) (string, error) {
			v := testutil.MustParse(vals[env.ID()])
			n, err := core.AddLastBit(env, "alb", v, prefix.Len(), nil)
			if err != nil {
				return "", err
			}
			out, err := v.Prefix(n)
			return out.String(), err
		})
	if err != nil {
		t.Fatal(err)
	}
	got, err := testutil.AgreeValue(res)
	if err != nil {
		t.Fatal(err)
	}
	if got != "100" && got != "101" {
		t.Errorf("extended prefix %q is not an honest extension", got)
	}
	// The agreed bit must be some honest value's next bit (here both 0 and
	// 1 qualify; with unanimous extensions it must match exactly).
	resUnanimous, err := sim.Collect(sim.Config{N: 4, T: 1}, nil,
		func(env *sim.Env) (string, error) {
			v := testutil.MustParse("101110")
			n, err := core.AddLastBit(env, "alb", v, prefix.Len(), nil)
			if err != nil {
				return "", err
			}
			out, err := v.Prefix(n)
			return out.String(), err
		})
	if err != nil {
		t.Fatal(err)
	}
	u, err := testutil.AgreeValue(resUnanimous)
	if err != nil {
		t.Fatal(err)
	}
	if u != "101" {
		t.Errorf("unanimous extension gave %q, want 101", u)
	}
}

func TestAddLastBitRejectsFullPrefix(t *testing.T) {
	_, err := sim.Collect(sim.Config{N: 1, T: 0}, nil,
		func(env *sim.Env) (string, error) {
			p := testutil.MustParse("101")
			_, err := core.AddLastBit(env, "alb", p, p.Len(), nil)
			return p.String(), err
		})
	if err == nil {
		t.Error("prefix as long as the value accepted")
	}
}

// TestGetOutputLemma3 exercises GETOUTPUT with crafted preconditions: the
// agreed prefix is "10" over width 5 (the head of every party's value v),
// and t+1 honest parties hold values avoiding it, all BELOW the prefix
// range — the output must be MIN_5(10) = 10000.
func TestGetOutputLemma3(t *testing.T) {
	const width = 5
	prefix := testutil.MustParse("10")
	// Honest vBot values: parties 0-1 hold 00111 (< MIN(10)=16), parties
	// 2-3 hold values with the prefix (they stay silent in the announce
	// round).
	vals := []string{"00111", "00101", "10110", "10001"}
	res, err := sim.Collect(sim.Config{N: 4, T: 1}, nil,
		func(env *sim.Env) (*big.Int, error) {
			v, err := prefix.FillTo(width, 0)
			if err != nil {
				return nil, err
			}
			return core.GetOutput(env, "go", v, prefix.Len(), testutil.MustParse(vals[env.ID()]), nil)
		})
	if err != nil {
		t.Fatal(err)
	}
	out, err := testutil.AgreeBig(res)
	if err != nil {
		t.Fatal(err)
	}
	if out.Int64() != 0b10000 {
		t.Errorf("output %v, want 16 (MIN_5(10))", out)
	}
}

// TestGetOutputHighSide: the avoiding parties sit ABOVE the prefix range,
// so the output must be MAX_5(10) = 10111.
func TestGetOutputHighSide(t *testing.T) {
	const width = 5
	prefix := testutil.MustParse("10")
	vals := []string{"11010", "11100", "10110", "10001"}
	res, err := sim.Collect(sim.Config{N: 4, T: 1}, nil,
		func(env *sim.Env) (*big.Int, error) {
			v, err := prefix.FillTo(width, 0)
			if err != nil {
				return nil, err
			}
			return core.GetOutput(env, "go", v, prefix.Len(), testutil.MustParse(vals[env.ID()]), nil)
		})
	if err != nil {
		t.Fatal(err)
	}
	out, err := testutil.AgreeBig(res)
	if err != nil {
		t.Fatal(err)
	}
	if out.Int64() != 0b10111 {
		t.Errorf("output %v, want 23 (MAX_5(10))", out)
	}
}

// TestFindPrefixIdenticalInputsFullWidth: with identical inputs the search
// pins down every bit and FixedLengthCA's fast path triggers.
func TestFindPrefixIdenticalInputsFullWidth(t *testing.T) {
	const width = 12
	v := testutil.MustFromBig(big.NewInt(0xABC), width)
	res, err := sim.Collect(sim.Config{N: 4, T: 1}, nil,
		func(env *sim.Env) (core.PrefixResult, error) {
			return core.FindPrefix(env, "fp", v)
		})
	if err != nil {
		t.Fatal(err)
	}
	for id, r := range res.Outputs {
		if r.PrefixLen != width {
			t.Fatalf("party %d: prefix length %d, want %d", id, r.PrefixLen, width)
		}
		if r.Prefix().Big().Int64() != 0xABC {
			t.Fatalf("party %d: prefix value %v", id, r.Prefix().Big())
		}
	}
}

// TestFindPrefixBlocksGranularity: the blocks variant must return a prefix
// that is a whole number of blocks.
func TestFindPrefixBlocksGranularity(t *testing.T) {
	const width, blocks = 24, 4
	inputs := []int64{0xF00001, 0xF00F02, 0xF0F003, 0xFF0004}
	res, err := sim.Collect(sim.Config{N: 4, T: 1}, nil,
		func(env *sim.Env) (core.PrefixResult, error) {
			v := testutil.MustFromBig(big.NewInt(inputs[env.ID()]), width)
			return core.FindPrefixBlocks(env, "fpb", v, blocks)
		})
	if err != nil {
		t.Fatal(err)
	}
	for id, r := range res.Outputs {
		if r.PrefixLen%(width/blocks) != 0 {
			t.Fatalf("party %d: prefix of %d bits is not whole blocks", id, r.PrefixLen)
		}
	}
}

func TestTimelineExposed(t *testing.T) {
	inputs := []int64{5, 6, 7, 8}
	res, err := sim.Collect(sim.Config{N: 4, T: 1, Timeline: true}, nil,
		func(env *sim.Env) (*big.Int, error) {
			return core.PiN(env, "ca", big.NewInt(inputs[env.ID()]), nil)
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Report.Timeline) != res.Report.Rounds {
		t.Fatalf("timeline has %d entries for %d rounds", len(res.Report.Timeline), res.Report.Rounds)
	}
	var sum int64
	for i, rs := range res.Report.Timeline {
		if rs.Round != i {
			t.Fatalf("timeline entry %d has round %d", i, rs.Round)
		}
		sum += rs.HonestBits
	}
	if sum != res.Report.HonestBits {
		t.Errorf("timeline sums to %d, report says %d", sum, res.Report.HonestBits)
	}
}
