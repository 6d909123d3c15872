package core

import (
	"fmt"
	"math/big"

	"convexagreement/internal/ba"
	"convexagreement/internal/bitstr"
	"convexagreement/internal/highcostca"
	"convexagreement/internal/transport"
)

// AddLastBit implements ADDLASTBIT (§3, Lemma 2): the honest parties agree
// on one more bit of the prefix via binary BA on the (|prefix|+1)-th bit of
// their valid values v, all of which extend prefix. The returned bitstring
// still prefixes some valid value.
func AddLastBit(env transport.Net, tag string, prefix, v bitstr.String) (bitstr.String, error) {
	i := prefix.Len()
	if i >= v.Len() {
		return bitstr.String{}, fmt.Errorf("%w: prefix of %d bits leaves no bit to add to a %d-bit value", ErrProtocol, i, v.Len())
	}
	bit, err := ba.Binary(env, tag+"/lastbit", v.Bit(i))
	if err != nil {
		return bitstr.String{}, err
	}
	out, err := prefix.AppendBit(bit)
	if err != nil {
		return bitstr.String{}, fmt.Errorf("%w: %v", ErrProtocol, err)
	}
	return out, nil
}

// AddLastBlock implements ADDLASTBLOCK (§4, Lemma 5): the parties run the
// high-communication CA once on the (i*+1)-th block of their values — a
// value of only ℓ/n² bits, so the O(ℓ'n³) cost of HIGHCOSTCA contributes
// only O(ℓn) — and append the agreed block to the prefix.
func AddLastBlock(env transport.Net, tag string, prefix, v bitstr.String, blockBits int) (bitstr.String, error) {
	if blockBits <= 0 || prefix.Len()%blockBits != 0 {
		return bitstr.String{}, fmt.Errorf("%w: prefix of %d bits is not whole blocks of %d", ErrProtocol, prefix.Len(), blockBits)
	}
	iStar := prefix.Len() / blockBits
	block, err := v.BlockRange(iStar, iStar+1, blockBits)
	if err != nil {
		return bitstr.String{}, fmt.Errorf("%w: %v", ErrProtocol, err)
	}
	agreed, err := highcostca.Run(env, tag+"/lastblock", block.Big())
	if err != nil {
		return bitstr.String{}, err
	}
	// The agreed block lies within the honest blocks' range, hence fits in
	// blockBits bits.
	agreedBits, err := bitstr.FromBig(agreed, blockBits)
	if err != nil {
		return bitstr.String{}, fmt.Errorf("%w: agreed block out of range: %v", ErrProtocol, err)
	}
	return prefix.Concat(agreedBits), nil
}

// GetOutput implements GETOUTPUT (§3, Lemma 3). Preconditions: prefix is
// the agreed (i*+1)-unit prefix of some valid value, and at least t+1
// honest parties hold valid values vBot whose representations avoid prefix.
// Those parties announce whether their value lies below MIN_ℓ(prefix) or
// above MAX_ℓ(prefix); one bit of BA then selects the common valid output.
func GetOutput(env transport.Net, tag string, width int, prefix, vBot bitstr.String) (*big.Int, error) {
	// vBot's side of the prefix range is read off the bitstrings: a value
	// that avoids prefix lies below MIN_ℓ(prefix) exactly when its first
	// |prefix| bits order below prefix. Parties holding the prefix stay
	// silent.
	if width < prefix.Len() {
		return nil, fmt.Errorf("%w: prefix of %d bits exceeds width %d", ErrProtocol, prefix.Len(), width)
	}
	head, err := vBot.Prefix(prefix.Len())
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrProtocol, err)
	}
	var in []transport.Message
	switch head.Compare(prefix) {
	case -1:
		in, err = transport.ExchangeAll(env, tag+"/side", []byte{0})
	case 1:
		in, err = transport.ExchangeAll(env, tag+"/side", []byte{1})
	default:
		in, err = transport.ExchangeNone(env)
	}
	if err != nil {
		return nil, err
	}
	// CHOICE: a bit received from ⌈m/2⌉ of the m senders. With ≥ t+1
	// honest senders any such bit is honest-backed; on an exact tie both
	// are, and 0 is taken deterministically.
	choice, _ := transport.MajorityBit(in)
	agreed, err := ba.Binary(env, tag+"/side-ba", choice)
	if err != nil {
		return nil, err
	}
	// Only the value returned is materialised as a number.
	var fill *big.Int
	if agreed == 0 {
		fill, err = prefix.MinFill(width)
	} else {
		fill, err = prefix.MaxFill(width)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrProtocol, err)
	}
	return fill, nil
}
