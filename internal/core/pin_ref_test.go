package core

import (
	"fmt"
	"math/big"
	"slices"
	"testing"

	"convexagreement/internal/ba"
	"convexagreement/internal/bitstr"
	"convexagreement/internal/highcostca"
	"convexagreement/internal/sim"
	"convexagreement/internal/testutil"
	"convexagreement/internal/transport"
)

// piZRef and piNRef are Π_ℤ and Π_ℕ as the paper lists them and as this
// package ran them before the length questions became lanes of one Π_BA
// instance: the sign, then the size class, then the doubling search, one
// ba.Binary after another, each asked only once the previous one answered.
// They are the oracle for the batched preamble; asked counts the instances.

func piZRef(env transport.Net, tag string, v *big.Int, asked *int) (*big.Int, error) {
	signIn := byte(0)
	if v.Sign() < 0 {
		signIn = 1
	}
	*asked++
	signOut, err := ba.Binary(env, tag+"/sign", signIn, nil)
	if err != nil {
		return nil, err
	}
	mag := new(big.Int).Abs(v)
	if signOut != signIn {
		mag = big.NewInt(0)
	}
	magOut, err := piNRef(env, tag+"/mag", mag, asked)
	if err != nil {
		return nil, err
	}
	if signOut == 1 {
		return new(big.Int).Neg(magOut), nil
	}
	return magOut, nil
}

func piNRef(env transport.Net, tag string, v *big.Int, asked *int) (*big.Int, error) {
	n := env.N()
	n2, short := n*n, shortBits(n)
	vLen := bitstr.NatBitLen(v)

	sizeClass := byte(0)
	if vLen > short {
		sizeClass = 1
	}
	*asked++
	agreedClass, err := ba.Binary(env, tag+"/sizeclass", sizeClass, nil)
	if err != nil {
		return nil, err
	}

	if agreedClass == 0 {
		v = clampToWidth(v, short)
		for i := 0; ; i++ {
			est := 1 << i
			tooLong := byte(0)
			if bitstr.NatBitLen(v) > est {
				tooLong = 1
			}
			*asked++
			fits, err := ba.Binary(env, fmt.Sprintf("%s/len%d", tag, i), tooLong, nil)
			if err != nil {
				return nil, err
			}
			if fits == 0 {
				v = clampToWidth(v, est)
				return FixedLengthCA(env, tag+"/flca", est, v, nil)
			}
			if est >= short {
				return nil, fmt.Errorf("%w: length search failed to converge", ErrProtocol)
			}
		}
	}

	blockSize := (vLen + n2 - 1) / n2
	nat, err := highcostca.Run(env, tag+"/blocksize", big.NewInt(int64(blockSize)).Bytes(), nil)
	if err != nil {
		return nil, err
	}
	agreedBS := new(big.Int).SetBytes(nat)
	if !agreedBS.IsInt64() || agreedBS.Int64() <= 0 || agreedBS.Int64() > MaxWidth/int64(n2) {
		return nil, fmt.Errorf("%w: agreed block size %v out of simulation range", ErrProtocol, agreedBS)
	}
	est := int(agreedBS.Int64()) * n2
	v = clampToWidth(v, est)
	return FixedLengthCABlocks(env, tag+"/flcab", est, n2, v, nil)
}

// ofLength is a natural of exactly bits bits that differs per party in its
// low bits where there is room.
func ofLength(bits, party int) *big.Int {
	if bits == 0 {
		return new(big.Int)
	}
	v := new(big.Int).Lsh(big.NewInt(1), uint(bits-1))
	if bits > 8 {
		v.Add(v, big.NewInt(int64(37*party%128)))
	}
	return v
}

// TestBatchedPreambleMatchesSequential: at f = 0 the one-instance preamble
// and the paper's sequential listing are the same function. Over the
// lengths at which some question changes its answer — 0, 1, every 2^i and
// 2^i + 1, n² and n² + 1, T and T + 1 bits, alone and mixed with the next
// shorter class — and over sign patterns that leave every party, most parties, few
// parties or one party holding magnitude 0, both produce the same output at
// every party, and the batched run is shorter by exactly the instances it
// no longer waits for.
func TestBatchedPreambleMatchesSequential(t *testing.T) {
	// negative reports party p's sign under each pattern.
	signs := []struct {
		name     string
		negative func(p, n int) bool
	}{
		{"positive", func(p, n int) bool { return false }},
		{"negative", func(p, n int) bool { return true }},
		{"mostly-negative", func(p, n int) bool { return p%3 != 0 }},
		{"one-negative", func(p, n int) bool { return p == n-1 }},
		{"one-positive", func(p, n int) bool { return p != 1 }},
	}
	for _, n := range []int{4, 7, 16} {
		tc, n2, short := (n-1)/3, n*n, shortBits(n)
		lengths := []int{0, 1}
		for est := 2; est < short; est *= 2 {
			lengths = append(lengths, est, est+1)
		}
		lengths = append(lengths, n2, n2+1, short, short+1)
		slices.Sort(lengths)
		lengths = slices.Compact(lengths)
		for li, bits := range lengths {
			for _, mixed := range []bool{false, true} {
				if mixed && li == 0 {
					continue
				}
				// Every sign pattern at the small n; at n = 16 they take turns.
				patterns := signs
				if n == 16 {
					patterns = signs[li%len(signs):][:1]
				}
				for _, sign := range patterns {
					inputs := make([]*big.Int, n)
					for p := range inputs {
						inputs[p] = ofLength(bits, p)
						if mixed && p%2 == 1 {
							inputs[p] = ofLength(lengths[li-1], p)
						}
						if sign.negative(p, n) {
							inputs[p].Neg(inputs[p])
						}
					}
					name := fmt.Sprintf("n=%d %d bits mixed=%v %s", n, bits, mixed, sign.name)
					comparePreambles(t, name, n, tc, inputs, true)
					if sign.name == "positive" {
						comparePreambles(t, name+" (Π_ℕ)", n, tc, inputs, false)
					}
				}
			}
		}
	}
}

// comparePreambles runs Π_ℤ (or Π_ℕ) and its sequential reference on the
// same inputs at f = 0.
func comparePreambles(t *testing.T, name string, n, tc int, inputs []*big.Int, integers bool) {
	t.Helper()
	asked := make([]int, n)
	run := func(ref bool) (*sim.Result[*big.Int], *big.Int) {
		res, err := sim.Collect(sim.Config{N: n, T: tc}, nil, func(env *sim.Env) (*big.Int, error) {
			v := inputs[env.ID()]
			switch {
			case ref && integers:
				return piZRef(env, "ca", v, &asked[env.ID()])
			case ref:
				return piNRef(env, "ca", v, &asked[env.ID()])
			case integers:
				return PiZ(env, "ca", v, nil)
			}
			return PiN(env, "ca", v, nil)
		})
		if err != nil {
			t.Fatalf("%s (reference %v): %v", name, ref, err)
		}
		out, err := testutil.AgreeBig(res)
		if err != nil {
			t.Fatalf("%s (reference %v): %v", name, ref, err)
		}
		return res, out
	}
	want, wantOut := run(true)
	got, gotOut := run(false)
	if gotOut.Cmp(wantOut) != 0 {
		t.Errorf("%s: output %v, sequential reference %v", name, gotOut, wantOut)
	}
	if err := testutil.HullCheck(gotOut, inputs); err != nil {
		t.Errorf("%s: %v", name, err)
	}
	if saved := (asked[0] - 1) * ba.BinaryRounds(tc); got.Report.Rounds != want.Report.Rounds-saved {
		t.Errorf("%s: %d rounds, reference %d with %d instances: want %d", name, got.Report.Rounds, want.Report.Rounds, asked[0], want.Report.Rounds-saved)
	}
}
