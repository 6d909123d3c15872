package core

import (
	"fmt"
	"math/big"

	"convexagreement/internal/bitstr"
	"convexagreement/internal/transport"
)

// FixedLengthCA implements FIXEDLENGTHCA (§3, Theorem 2): Convex Agreement
// for ℕ-valued inputs of publicly known bit-length width. All honest
// parties must call it with the same width and valid inputs < 2^width.
//
// Complexity (Theorem 2): O(ℓn + κ·n²·log n·log ℓ) bits plus O(log ℓ)
// invocations of Π_BA, and O(log ℓ)·ROUNDS(Π_BA) rounds — log to the base
// of the search's arity.
func FixedLengthCA(env transport.Net, tag string, width int, v *big.Int) (*big.Int, error) {
	return fixedLengthCA(env, tag, width, v, arity)
}

// fixedLengthCA is FixedLengthCA with its search at arity k.
func fixedLengthCA(env transport.Net, tag string, width int, v *big.Int, k int) (*big.Int, error) {
	bits, err := bitstr.FromBig(v, width)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrProtocol, err)
	}
	res, err := findPrefix(env, tag+"/fp", bits, 1, width, k)
	if err != nil {
		return nil, err
	}
	if res.Prefix.Len() == width {
		// The search pinned down all ℓ bits: every honest party holds the
		// same valid value v.
		return res.V.Big(), nil
	}
	prefix, err := AddLastBit(env, tag+"/alb", res.Prefix, res.V)
	if err != nil {
		return nil, err
	}
	return GetOutput(env, tag+"/go", width, prefix, res.VBot)
}

// FixedLengthCABlocks implements FIXEDLENGTHCABLOCKS (§4, Theorem 4): the
// block-granular variant for very long inputs. width must be a multiple of
// numBlocks (the paper fixes numBlocks = n²); the search then needs only
// O(log numBlocks) iterations and the one HIGHCOSTCA call runs on a single
// block of width/numBlocks bits.
//
// Complexity (Theorem 4): O(ℓn + κ·n²·log²n) bits plus O(log n) invocations
// of Π_BA, and O(n) + O(log n)·ROUNDS(Π_BA) rounds.
func FixedLengthCABlocks(env transport.Net, tag string, width, numBlocks int, v *big.Int) (*big.Int, error) {
	return fixedLengthCABlocks(env, tag, width, numBlocks, v, arity)
}

// fixedLengthCABlocks is FixedLengthCABlocks with its search at arity k.
func fixedLengthCABlocks(env transport.Net, tag string, width, numBlocks int, v *big.Int, k int) (*big.Int, error) {
	if numBlocks <= 0 || width%numBlocks != 0 {
		return nil, fmt.Errorf("%w: width %d not a multiple of %d blocks", ErrProtocol, width, numBlocks)
	}
	bits, err := bitstr.FromBig(v, width)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrProtocol, err)
	}
	res, err := findPrefix(env, tag+"/fpb", bits, width/numBlocks, numBlocks, k)
	if err != nil {
		return nil, err
	}
	if res.Prefix.Len() == width {
		return res.V.Big(), nil
	}
	prefix, err := AddLastBlock(env, tag+"/albk", res.Prefix, res.V, width/numBlocks)
	if err != nil {
		return nil, err
	}
	return GetOutput(env, tag+"/go", width, prefix, res.VBot)
}
