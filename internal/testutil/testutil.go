// Package testutil holds the checks the protocol tests and the experiments
// make on a simulated run's outputs (sim.Collect's Result): agreement
// (AgreeValue, AgreeBig) and convex validity (HullCheck), and the panicking
// bit-string constructors for literals a test knows are well formed.
package testutil

import (
	"fmt"
	"math/big"

	"convexagreement/internal/bitstr"
	"convexagreement/internal/sim"
)

// AgreeValue returns the single common output, failing if honest parties
// disagree (via the comparable constraint).
func AgreeValue[T comparable](r *sim.Result[T]) (T, error) {
	var zero T
	first := true
	var common T
	for id, out := range r.Outputs {
		if first {
			common, first = out, false
			continue
		}
		if out != common {
			return zero, fmt.Errorf("testutil: party %d output %v differs from %v", id, out, common)
		}
	}
	if first {
		return zero, fmt.Errorf("testutil: no honest outputs")
	}
	return common, nil
}

// AgreeBig is AgreeValue for *big.Int outputs.
func AgreeBig(r *sim.Result[*big.Int]) (*big.Int, error) {
	var common *big.Int
	for id, out := range r.Outputs {
		if out == nil {
			return nil, fmt.Errorf("testutil: party %d output nil", id)
		}
		if common == nil {
			common = out
			continue
		}
		if out.Cmp(common) != 0 {
			return nil, fmt.Errorf("testutil: party %d output %v differs from %v", id, out, common)
		}
	}
	if common == nil {
		return nil, fmt.Errorf("testutil: no honest outputs")
	}
	return common, nil
}

// HullCheck verifies the convex-validity condition of Definition 1: value
// lies within [min(honestInputs), max(honestInputs)].
func HullCheck(value *big.Int, honestInputs []*big.Int) error {
	if len(honestInputs) == 0 {
		return fmt.Errorf("testutil: no honest inputs")
	}
	lo, hi := honestInputs[0], honestInputs[0]
	for _, v := range honestInputs[1:] {
		if v.Cmp(lo) < 0 {
			lo = v
		}
		if v.Cmp(hi) > 0 {
			hi = v
		}
	}
	if value.Cmp(lo) < 0 || value.Cmp(hi) > 0 {
		return fmt.Errorf("testutil: output %v outside honest hull [%v, %v]", value, lo, hi)
	}
	return nil
}

// MustParse is bitstr.Parse for a literal the test knows is well formed; it
// panics on error.
func MustParse(text string) bitstr.String {
	s, err := bitstr.Parse(text)
	if err != nil {
		panic(err)
	}
	return s
}

// MustFromBig is bitstr.FromBig for arguments the test knows fit; it panics
// on error.
func MustFromBig(v *big.Int, width int) bitstr.String {
	s, err := bitstr.FromBig(v, width)
	if err != nil {
		panic(err)
	}
	return s
}
