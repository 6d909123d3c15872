package core

import (
	"math/big"

	"convexagreement/internal/ba"
	"convexagreement/internal/transport"
)

// PiZ implements Π_ℤ (§6, Corollaries 1–2): Convex Agreement for integer
// inputs. The parties agree on an output sign with one bit of BA; parties
// whose sign differs from the agreed one switch their magnitude to 0
// (always valid, since an honest party on the agreed side exists), and Π_ℕ
// then agrees on the magnitude.
//
// Deviation (PROTOCOLS.md, "batched length search"): Π_ℕ's length questions
// depend on the agreed sign only through which magnitude a party holds —
// its own on its own side, 0 on the other — so they ride the sign's Π_BA
// instance at tag+"/pre", asked once for each sign outcome: lane 0 is the
// sign, then lengthLanes(n) lanes for "the sign is +" and as many for "−".
// The agreed sign selects the side whose answers Π_ℕ continues from.
//
// With Π_BA instantiated by phase-king (package ba), this realizes
// Corollary 2: a deterministic CA protocol for ℤ in the plain model with
// t < n/3, O(ℓn + poly(n, κ)) bits, and O(n log n) rounds.
func PiZ(env transport.Net, tag string, v *big.Int) (*big.Int, error) {
	return piZ(env, tag, v, arity)
}

// piZ is PiZ with its prefix search at arity k.
func piZ(env transport.Net, tag string, v *big.Int, k int) (*big.Int, error) {
	if v == nil {
		return nil, ErrProtocol
	}
	signIn := 0
	if v.Sign() < 0 {
		signIn = 1
	}
	mag := new(big.Int).Abs(v)
	m := lengthLanes(env.N())
	lanes := make([]byte, 1+2*m) // the other side's magnitude is 0: every answer 0
	lanes[0] = byte(signIn)
	askLength(lanes[1+signIn*m:][:m], mag, env.N())
	agreed, err := ba.Bits(env, tag+"/pre", lanes)
	if err != nil {
		return nil, err
	}
	signOut := int(agreed[0])
	if signOut != signIn {
		// The agreed sign is held by some honest party, so 0 lies between
		// that party's input and ours.
		mag = big.NewInt(0)
	}
	magOut, err := piNWithLength(env, tag+"/mag", mag, agreed[1+signOut*m:][:m], k)
	if err != nil {
		return nil, err
	}
	if signOut == 1 {
		return new(big.Int).Neg(magOut), nil
	}
	return magOut, nil
}
