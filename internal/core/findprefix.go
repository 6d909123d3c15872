// Package core implements the paper's Convex Agreement construction:
//
//   - FindPrefix / FindPrefixBlocks (§3, §4): byzantine k-ary search for a
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
	"bytes"
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

// arity is the k of the k-ary search: every FINDPREFIX iteration asks k−1
// split points of the remaining range as the lanes of one batched Π_ℓBA+
// (baplus.LongLanes), so a range of R+1 candidate prefix lengths takes
// ⌈log_k(R+1)⌉ iterations of one Π_BA+ stage each. EXPERIMENTS.md E22 is
// the table it was chosen from.
const arity = 4

// FindPrefix runs the bit-granular search of Section 3 (protocol
// FINDPREFIX): O(log ℓ) iterations of Π_ℓBA+ over k-ary split bit ranges
// (deviation "batched Π_BA+ and k-ary FINDPREFIX", PROTOCOLS.md).
func FindPrefix(env transport.Net, tag string, v bitstr.String) (PrefixResult, error) {
	return findPrefix(env, tag, v, 1, v.Len(), arity)
}

// FindPrefixBlocks runs the block-granular search of Section 4 (protocol
// FINDPREFIXBLOCKS): the same k-ary search over numBlocks blocks of
// ℓ/numBlocks bits, reducing the iteration count to O(log numBlocks)
// regardless of ℓ. v's length must be a multiple of numBlocks.
func FindPrefixBlocks(env transport.Net, tag string, v bitstr.String, numBlocks int) (PrefixResult, error) {
	if numBlocks <= 0 || v.Len()%numBlocks != 0 {
		return PrefixResult{}, fmt.Errorf("%w: length %d not divisible into %d blocks", ErrProtocol, v.Len(), numBlocks)
	}
	return findPrefix(env, tag, v, v.Len()/numBlocks, numBlocks, arity)
}

// findPrefix is the shared engine: the two paper listings differ only in
// the unit of the search (1 bit vs ℓ/n² bits), so a single implementation
// parameterized by blockBits serves both, at arity k ≥ 2.
//
// Positions are 1-indexed block positions as in the paper. The agreed
// prefix ends with one of the right−left+1 lengths left−1 … right−1; the
// paper asks whether it reaches mid, this search asks at once whether it
// reaches each of k−1 split points m_j = left−1+⌈j(right−left+1)/k⌉, which
// cut those lengths into k near-equal groups (k = 2 asks exactly mid).
// With j* the highest split point whose lane agreed, the prefix gains lane
// j*'s segment and left := m_{j*}+1; if a lane above j* exists it agreed
// on ⊥, so right := m_{j*+1} and vBot := the pre-iteration v, whose
// m_{j*+1}-block strings that lane's Bounded Pre-Agreement speaks about.
func findPrefix(env transport.Net, tag string, v bitstr.String, blockBits, numBlocks, k int) (PrefixResult, error) {
	width := v.Len()
	if blockBits*numBlocks != width {
		return PrefixResult{}, fmt.Errorf("%w: %d blocks of %d bits != width %d", ErrProtocol, numBlocks, blockBits, width)
	}
	left, right := 1, numBlocks+1
	vBot := v
	splits := make([]int, 0, k-1)
	// segment marshals lane j's blocks left..m_j of v into one buffer that
	// every lane of every iteration reuses (baplus.LongLanes keeps none).
	// The range lies inside v (1 ≤ left ≤ m_j ≤ numBlocks), so it cannot
	// fail.
	var buf []byte
	segment := func(j int) []byte {
		buf, _ = v.AppendMarshalRange(buf[:0], (left-1)*blockBits, splits[j]*blockBits)
		return buf
	}
	// Loop invariant: blocks 1..left−1 of v are the prefix agreed so far.
	// The prefix is therefore never held separately, and each iteration
	// touches only the blocks left..m_{k−1} it is deciding.
	for left < right {
		splits = splits[:0]
		for j := 1; j < k; j++ {
			if m := left - 1 + (j*(right-left+1)+k-1)/k; m < right && (len(splits) == 0 || m > splits[len(splits)-1]) {
				splits = append(splits, m)
			}
		}
		lane, agreed, err := baplus.LongLanes(env, tag+"/lba", len(splits), segment)
		if err != nil {
			return PrefixResult{}, err
		}
		pre := v
		if lane >= 0 {
			m := splits[lane]
			agreedSeg, err := bitstr.Unmarshal(agreed)
			if err != nil || agreedSeg.Len() != (m-left+1)*blockBits {
				// Intrusion Tolerance makes the agreed segment an honest
				// party's submission, which always has this exact shape.
				return PrefixResult{}, fmt.Errorf("%w: agreed segment malformed", ErrProtocol)
			}
			// Re-anchor v on the agreed prefix if it diverged (Remark 2
			// makes the fill values valid). By the invariant v and
			// prefix‖agreedSeg share their first left−1 blocks, so the
			// first m blocks of v order against prefix‖agreedSeg as our
			// segment does against the agreed one — and two marshalled
			// segments of one length order as the segments do.
			if c := bytes.Compare(segment(lane), agreed); c != 0 {
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
			left = m + 1
		}
		if lane+1 < len(splits) {
			// Lane j*+1 agreed on ⊥: by Bounded Pre-Agreement fewer than
			// n−2t honest parties share its segment, so (Property D) every
			// m_{j*+1}-block bitstring is avoided by ≥ t+1 honest
			// pre-iteration values v.
			vBot, right = pre, splits[lane+1]
		}
	}
	prefix, err := v.BlockRange(0, left-1, blockBits)
	if err != nil {
		return PrefixResult{}, fmt.Errorf("%w: %v", ErrProtocol, err)
	}
	return PrefixResult{Prefix: prefix, V: v, VBot: vBot}, nil
}
