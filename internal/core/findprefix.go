// Package core implements the paper's Convex Agreement construction:
//
//   - FindPrefix / FindPrefixBlocks (§3, §4): byzantine binary search for a
//     valid value's prefix, at bit or block granularity.
//   - AddLastBit / AddLastBlock (§3, §4): extend the agreed prefix by one
//     unit so it provably splits the remaining honest values.
//   - GetOutput (§3): decide between MIN_ℓ(prefix) and MAX_ℓ(prefix).
//   - FixedLengthCA / FixedLengthCABlocks (§3 Thm 2, §4 Thm 4): CA for
//     ℓ-bit naturals with publicly known ℓ.
//   - PiN (§5 Thm 5): CA for ℕ with unknown input length.
//   - PiZ (§6 Cor 1): CA for ℤ.
//
// All protocols assume t < n/3 and the synchronous model of transport.Net
// (whichever implementation is behind it: the simulator, the TCP mesh, the
// in-process hub, or a Net stacked on one); every honest party must enter a
// protocol in the same round with identical public parameters.
package core

import (
	"errors"
	"fmt"

	"convexagreement/internal/baplus"
	"convexagreement/internal/bitstr"
	"convexagreement/internal/transport"
)

// ErrProtocol reports a violated protocol precondition or guarantee.
var ErrProtocol = errors.New("core: protocol violation")

// PrefixResult is what FindPrefix hands to the rest of FixedLengthCA
// (Lemma 1 / Lemma 4): an agreed bitstring Prefix that prefixes some valid
// value, this party's valid value V extending Prefix, and a valid value
// VBot such that, for every one-unit extension of Prefix, at least t+1
// honest parties hold VBot values avoiding that extension.
type PrefixResult struct {
	Prefix bitstr.String
	V      bitstr.String
	VBot   bitstr.String
}

// FindPrefix runs the bit-granular search of Section 3 (protocol
// FINDPREFIX): O(log ℓ) iterations of Π_ℓBA+ over halving bit ranges.
func FindPrefix(env transport.Net, tag string, v bitstr.String) (PrefixResult, error) {
	return findPrefix(env, tag, v, 1, v.Len())
}

// FindPrefixBlocks runs the block-granular search of Section 4 (protocol
// FINDPREFIXBLOCKS): the same binary search over numBlocks blocks of
// ℓ/numBlocks bits, reducing the iteration count to O(log numBlocks)
// regardless of ℓ. v's length must be a multiple of numBlocks.
func FindPrefixBlocks(env transport.Net, tag string, v bitstr.String, numBlocks int) (PrefixResult, error) {
	if numBlocks <= 0 || v.Len()%numBlocks != 0 {
		return PrefixResult{}, fmt.Errorf("%w: length %d not divisible into %d blocks", ErrProtocol, v.Len(), numBlocks)
	}
	return findPrefix(env, tag, v, v.Len()/numBlocks, numBlocks)
}

// findPrefix is the shared engine: the two paper listings differ only in
// the unit of the search (1 bit vs ℓ/n² bits), so a single implementation
// parameterized by blockBits serves both.
//
// Positions are 1-indexed block positions as in the paper; left/right/mid
// follow the listings verbatim.
func findPrefix(env transport.Net, tag string, v bitstr.String, blockBits, numBlocks int) (PrefixResult, error) {
	width := v.Len()
	if blockBits*numBlocks != width {
		return PrefixResult{}, fmt.Errorf("%w: %d blocks of %d bits != width %d", ErrProtocol, numBlocks, blockBits, width)
	}
	left, right := 1, numBlocks+1
	vBot := v
	// Loop invariant: blocks 1..left−1 of v are the prefix agreed so far.
	// The prefix is therefore never held separately, and each iteration
	// touches only the blocks left..mid it is deciding.
	for left < right {
		mid := (left + right) / 2
		segment, err := v.BlockRange(left-1, mid, blockBits)
		if err != nil {
			return PrefixResult{}, fmt.Errorf("%w: %v", ErrProtocol, err)
		}
		agreed, ok, err := baplus.Long(env, tag+"/lba", segment.Marshal())
		if err != nil {
			return PrefixResult{}, err
		}
		if !ok {
			// ⊥: by Bounded Pre-Agreement, fewer than n−2t honest parties
			// share blocks left..mid, so (Property D) every (mid)-block
			// bitstring is avoided by ≥ t+1 honest values v.
			vBot = v
			right = mid
			continue
		}
		agreedSeg, err := bitstr.Unmarshal(agreed)
		if err != nil || agreedSeg.Len() != (mid-left+1)*blockBits {
			// Intrusion Tolerance makes the agreed segment an honest
			// party's submission, which always has this exact shape.
			return PrefixResult{}, fmt.Errorf("%w: agreed segment malformed", ErrProtocol)
		}
		// Re-anchor v on the agreed prefix if it diverged (Remark 2 makes
		// the fill values valid). By the invariant v and prefix‖agreedSeg
		// share their first left−1 blocks, so the first mid blocks of v
		// order against prefix‖agreedSeg as segment does against agreedSeg.
		if c := segment.Compare(agreedSeg); c != 0 {
			fill := byte(0)
			if c > 0 {
				fill = 1
			}
			prefix, err := v.BlockRange(0, left-1, blockBits)
			if err != nil {
				return PrefixResult{}, fmt.Errorf("%w: %v", ErrProtocol, err)
			}
			if v, err = prefix.Concat(agreedSeg).FillTo(width, fill); err != nil {
				return PrefixResult{}, fmt.Errorf("%w: %v", ErrProtocol, err)
			}
		}
		left = mid + 1
	}
	prefix, err := v.BlockRange(0, left-1, blockBits)
	if err != nil {
		return PrefixResult{}, fmt.Errorf("%w: %v", ErrProtocol, err)
	}
	return PrefixResult{Prefix: prefix, V: v, VBot: vBot}, nil
}
