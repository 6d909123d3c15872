package core

import (
	"fmt"
	"math/big"
	"math/bits"

	"convexagreement/internal/ba"
	"convexagreement/internal/bitstr"
	"convexagreement/internal/highcostca"
	"convexagreement/internal/transport"
)

// MaxWidth bounds the agreed input width a simulation will handle (2^26
// bits = 8 MiB values); it protects against byzantine parties voting the
// block-size estimate toward astronomically long values. Honest runs whose
// inputs exceed it fail loudly.
const MaxWidth = 1 << 26

// PiN implements the final protocol for ℕ, Π_ℕ (§5, Theorem 5): the input
// length ℓ is not publicly known. The parties first agree whether any input
// exceeds n² bits; short inputs are handled by FIXEDLENGTHCA after a
// doubling search for a length estimate, long inputs by
// FIXEDLENGTHCABLOCKS after agreeing on a block size via HIGHCOSTCA
// (block-size values have only O(ℓ/n²) bits, so that call stays within
// O(ℓn) bits).
//
// Deviation (PROTOCOLS.md, "batched length search"): the paper lists the
// size-class question and the doubling search's questions one Π_BA after
// another; none of their inputs depends on another's answer, so they are
// the lanes of one ba.Bits instance at tag+"/pre".
//
// Complexity (Theorem 5): O(ℓn + κ·n²·log²n) + O(log n)·BITS_κ(Π_BA) bits
// and O(n) + O(log n)·ROUNDS_κ(Π_BA) rounds; of the rounds the length search
// is one ROUNDS(Π_BA), the O(log n) factor is the prefix search's.
func PiN(env transport.Net, tag string, v *big.Int) (*big.Int, error) {
	if v == nil || v.Sign() < 0 {
		return nil, fmt.Errorf("%w: input must be a natural number, got %v", ErrProtocol, v)
	}
	lanes := make([]byte, lengthLanes(env.N()))
	askLength(lanes, v, env.N())
	agreed, err := ba.Bits(env, tag+"/pre", lanes)
	if err != nil {
		return nil, err
	}
	return piNWithLength(env, tag, v, agreed, arity)
}

// lengthLanes is the number of questions Π_ℕ asks about its input's length:
// the size class and one per doubling step 2^0 … 2^⌈log₂ n²⌉.
func lengthLanes(n int) int { return bits.Len(uint(n*n-1)) + 2 }

// askLength fills a party's lengthLanes(n) inputs for the magnitude v: lane
// 0 is the size class ("v is longer than n² bits"), lane 1+i the doubling
// search's "v, clamped to n² bits, is longer than 2^i bits".
func askLength(lanes []byte, v *big.Int, n int) {
	n2, vLen := n*n, bitstr.NatBitLen(v)
	clear(lanes)
	if vLen > n2 {
		lanes[0] = 1
	}
	for i := range lanes[1:] {
		if min(vLen, n2) > 1<<i {
			lanes[1+i] = 1
		}
	}
}

// piNWithLength is Π_ℕ from the agreed answers to askLength's questions on,
// its prefix search at arity k.
func piNWithLength(env transport.Net, tag string, v *big.Int, agreed []byte, k int) (*big.Int, error) {
	n2 := env.N() * env.N()
	if agreed[0] == 0 {
		// Some honest party's input fits in n² bits, so 2^(n²)−1 is in the
		// honest range and clamping longer inputs preserves validity.
		v = clampToWidth(v, n2)
		// Doubling search: the smallest power of two no honest party
		// objects to — the step at which the sequential search would have
		// stopped. All honest inputs fit in n² ≤ 2^⌈log₂ n²⌉ bits, so by
		// Validity the last lane, if no earlier one, agreed "fits"; and an
		// agreed "fits" at 2^i has an honest party whose clamped input fits
		// there, so clamping to 2^i preserves validity again.
		for i, tooLong := range agreed[1:] {
			if tooLong == 0 {
				est := 1 << i
				return fixedLengthCA(env, tag+"/flca", est, clampToWidth(v, est), k)
			}
		}
		// Unreachable: at 2^i ≥ n² every honest party inputs 0.
		return nil, fmt.Errorf("%w: length search failed to converge", ErrProtocol)
	}

	// Some honest party's input exceeds n² bits. Agree on a block size in
	// the honest block sizes' range via the high-cost protocol.
	blockSize := (bitstr.NatBitLen(v) + n2 - 1) / n2
	agreedBS, err := highcostca.Run(env, tag+"/blocksize", big.NewInt(int64(blockSize)))
	if err != nil {
		return nil, err
	}
	if !agreedBS.IsInt64() || agreedBS.Int64() <= 0 || agreedBS.Int64() > MaxWidth/int64(n2) {
		return nil, fmt.Errorf("%w: agreed block size %v out of simulation range", ErrProtocol, agreedBS)
	}
	est := int(agreedBS.Int64()) * n2
	// The paper's listing clamps on |BITS(v)| ≥ ℓ_EST; a value of exactly
	// ℓ_EST bits already satisfies v < 2^ℓ_EST, so clamping is only needed
	// (and only validity-preserving) for strictly longer values, as in the
	// protocol's own analysis ("if an honest party's input value is longer
	// than ℓ_EST bits"). We clamp on strict inequality.
	v = clampToWidth(v, est)
	return fixedLengthCABlocks(env, tag+"/flcab", est, n2, v, k)
}

// clampToWidth replaces v by 2^width−1 when v does not fit in width bits.
// Whenever some honest party's value fits in width bits, the clamp result
// lies in the honest inputs' range, preserving Convex Validity.
func clampToWidth(v *big.Int, width int) *big.Int {
	if bitstr.NatBitLen(v) <= width {
		return v
	}
	max := new(big.Int).Lsh(big.NewInt(1), uint(width))
	return max.Sub(max, big.NewInt(1))
}
