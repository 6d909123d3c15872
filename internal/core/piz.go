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
//
// The magnitude is worked on in b (nil: a fresh set); v is only read.
func PiZ(env transport.Net, tag string, v *big.Int, b *Buffers) (*big.Int, error) {
	return piZ(env, tag, v, arity, b)
}

// piZ is PiZ with its prefix search at arity k.
func piZ(env transport.Net, tag string, v *big.Int, k int, b *Buffers) (*big.Int, error) {
	if v == nil {
		return nil, ErrProtocol
	}
	if b == nil {
		b = fresh()
	}
	signIn := 0
	if v.Sign() < 0 {
		signIn = 1
	}
	// |v| shares v's words, read-only: nothing below writes a magnitude.
	mag := new(big.Int).SetBits(v.Bits())
	m := lengthLanes(env.N())
	lanes := make([]byte, 1+2*m) // the other side's magnitude is 0: every answer 0
	lanes[0] = byte(signIn)
	askLength(lanes[1+signIn*m:][:m], mag, env.N())
	agreed, err := ba.Bits(env, tag+"/pre", lanes, b.lanes.Work()) // a view of b, read before the search reuses it
	if err != nil {
		return nil, err
	}
	signOut := int(agreed[0])
	if signOut != signIn {
		// The agreed sign is held by some honest party, so 0 lies between
		// that party's input and ours.
		mag = big.NewInt(0)
	}
	magOut, err := piNWithLength(env, tag+"/mag", mag, agreed[1+signOut*m:][:m], k, b)
	if err != nil {
		return nil, err
	}
	if signOut == 1 {
		return magOut.Neg(magOut), nil // the output is fresh storage
	}
	return magOut, nil
}
