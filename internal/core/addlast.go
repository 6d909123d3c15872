package core

import (
	"fmt"
	"math/big"

	"convexagreement/internal/ba"
	"convexagreement/internal/bitstr"
	"convexagreement/internal/highcostca"
	"convexagreement/internal/transport"
)

// AddLastBit implements ADDLASTBIT (§3, Lemma 2). The first prefixLen bits
// of v, this party's valid value, are the agreed prefix; the honest parties
// agree on one more bit via binary BA on bit prefixLen+1 of their values,
// and AddLastBit writes it into v in place. The first prefixLen+1 bits of v,
// the returned length, still prefix some valid value. The BA runs on w
// (nil: a fresh set).
func AddLastBit(env transport.Net, tag string, v bitstr.String, prefixLen int, w *ba.Work) (int, error) {
	if prefixLen < 0 || prefixLen >= v.Len() {
		return 0, fmt.Errorf("%w: prefix of %d bits leaves no bit to add to a %d-bit value", ErrProtocol, prefixLen, v.Len())
	}
	bit, err := ba.Binary(env, tag+"/lastbit", v.Bit(prefixLen), w)
	if err != nil {
		return 0, err
	}
	v.SetBit(prefixLen, bit)
	return prefixLen + 1, nil
}

// AddLastBlock implements ADDLASTBLOCK (§4, Lemma 5). The first prefixLen
// bits of v, whole blocks, are the agreed prefix; the parties run the
// high-communication CA once on the next block of their values — a value
// of only ℓ/n² bits, so the O(ℓ'n³) cost of HIGHCOSTCA contributes only
// O(ℓn) — and AddLastBlock writes the agreed block into v in place,
// returning the extended prefix's length. The block goes to HIGHCOSTCA as
// the bytes of its natural, and the agreed natural comes back into v,
// through b's block buffer; HIGHCOSTCA runs on b's work set (nil: a fresh
// set).
func AddLastBlock(env transport.Net, tag string, v bitstr.String, prefixLen, blockBits int, b *Buffers) (int, error) {
	if blockBits <= 0 || prefixLen%blockBits != 0 || prefixLen+blockBits > v.Len() {
		return 0, fmt.Errorf("%w: prefix of %d bits is not whole blocks of %d short of %d", ErrProtocol, prefixLen, blockBits, v.Len())
	}
	if b == nil {
		b = fresh()
	}
	block, err := v.AppendNat(b.block[:0], prefixLen, prefixLen+blockBits)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrProtocol, err)
	}
	b.block = block
	agreed, err := highcostca.Run(env, tag+"/lastblock", block, &b.hc)
	if err != nil {
		return 0, err
	}
	// The agreed block lies within the honest blocks' range, hence fits in
	// blockBits bits.
	agreedBits, err := bitstr.FromNatTo(&b.block, agreed, blockBits)
	if err != nil {
		return 0, fmt.Errorf("%w: agreed block out of range: %v", ErrProtocol, err)
	}
	if err := v.SetRange(prefixLen, agreedBits); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrProtocol, err)
	}
	return prefixLen + blockBits, nil
}

// GetOutput implements GETOUTPUT (§3, Lemma 3). Preconditions: the first
// prefixLen bits of v are the agreed (i*+1)-unit prefix of some valid
// value, and at least t+1 honest parties hold valid values vBot whose
// representations avoid that prefix. Those parties announce whether their
// value lies below MIN_ℓ(prefix) or above MAX_ℓ(prefix), ℓ = v.Len(); one
// bit of BA then selects the common valid output. GetOutput writes that
// output's bits into v in place and returns its value in fresh storage. Its
// rounds run on w (nil: a fresh set).
func GetOutput(env transport.Net, tag string, v bitstr.String, prefixLen int, vBot bitstr.String, w *ba.Work) (*big.Int, error) {
	// vBot's side of the prefix range is read off the bitstrings: a value
	// that avoids prefix lies below MIN_ℓ(prefix) exactly when its first
	// |prefix| bits order below prefix. Parties holding the prefix stay
	// silent.
	if prefixLen < 0 || prefixLen > v.Len() || prefixLen > vBot.Len() {
		return nil, fmt.Errorf("%w: prefix of %d bits exceeds width %d", ErrProtocol, prefixLen, min(v.Len(), vBot.Len()))
	}
	var in []transport.Message
	var err error
	switch vBot.CompareHead(v, prefixLen) {
	case -1:
		in, err = transport.ExchangeAll(env, tag+"/side", []byte{0}, w.Fan())
	case 1:
		in, err = transport.ExchangeAll(env, tag+"/side", []byte{1}, w.Fan())
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
	agreed, err := ba.Binary(env, tag+"/side-ba", choice, w)
	if err != nil {
		return nil, err
	}
	// MIN_ℓ(prefix) or MAX_ℓ(prefix), built over v: only the value returned
	// is materialised as a number.
	if err := v.Fill(prefixLen, agreed); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrProtocol, err)
	}
	return v.Big(), nil
}
