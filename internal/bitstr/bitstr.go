// Package bitstr implements the exact-width binary representations of
// Section 2 of the paper ("Binary representations"): BITS_ℓ(v), VAL(BITS),
// MIN_ℓ(BITS), MAX_ℓ(BITS), prefix tests, bit- and block-range extraction,
// and concatenation.
//
// A String is a sequence of bits stored MSB-first. Bit indices in this
// package are 0-based (the paper uses 1-based indices; call sites translate).
//
// Views. A String is a view: a length and the bytes that hold it. Most
// operations build their result in fresh storage (Slice, Concat, FillTo,
// FromBig, …). The exceptions say where they write: FromBigTo, FromNatTo
// and CopyTo build it in a buffer the caller owns, which they grow but
// never shrink; Unmarshal returns a view of the bytes it decodes; SetBit,
// SetRange and Fill rewrite the receiver's bytes in place. A String is
// therefore valid, and safe to share between goroutines, exactly as long
// as nobody rewrites the storage under it: one built in a caller's buffer
// lives until the owner rewrites that buffer, one decoded from a payload
// as long as the payload does. That is how a protocol keeps a long value in buffers its
// run owns and rewrites it without copying.
//
// Layout and invariant. An n-bit String holds exactly ⌈n/8⌉ bytes; bit i is
// bit 7−i%8 of byte i/8, and the 8·⌈n/8⌉−n padding bits below the last bit
// are zero. Every constructor establishes this (Unmarshal rejects input that
// violates it), and every operation relies on it: two Strings of one length
// are equal exactly when their bytes are, and their order as naturals is the
// lexicographic order of their bytes. That is what lets Compare, Equal and
// HasPrefix run on whole bytes, and Slice, Concat, SetRange, FromBig and Big
// move 64-bit words — no operation on packed data looks at one bit at a
// time. The in-place writers keep the invariant too: they touch no bit
// outside their range.
package bitstr

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"slices"
	"strings"
)

// String is a bitstring of arbitrary length, packed MSB-first: a view of
// the bytes that hold it (see the package doc). The zero value is the empty
// bitstring.
type String struct {
	data []byte // ceil(n/8) bytes; bit i lives at data[i/8] bit (7 - i%8)
	n    int    // length in bits
}

// Errors returned by constructors and codecs in this package.
var (
	ErrNegative = errors.New("bitstr: negative value has no binary representation")
	ErrOverflow = errors.New("bitstr: value does not fit in the requested width")
	ErrRange    = errors.New("bitstr: bit range out of bounds")
	ErrCorrupt  = errors.New("bitstr: corrupt encoding")
)

// FromBig returns BITS_ℓ(v): the width-bit representation of v, left-padded
// with zeroes, in fresh storage. It fails if v is negative or does not fit
// in width bits.
func FromBig(v *big.Int, width int) (String, error) {
	var buf []byte
	return FromBigTo(&buf, v, width)
}

// FromBigTo is FromBig into *buf: the result is a view of its first
// ⌈width/8⌉ bytes, and *buf is replaced by a larger array first when its
// capacity is short, so a buffer the caller reuses only grows.
func FromBigTo(buf *[]byte, v *big.Int, width int) (String, error) {
	if v.Sign() < 0 {
		return String{}, ErrNegative
	}
	if width < 0 {
		return String{}, fmt.Errorf("bitstr: negative width %d", width)
	}
	if v.BitLen() > width {
		return String{}, fmt.Errorf("%w: %d bits into width %d", ErrOverflow, v.BitLen(), width)
	}
	s := String{data: grow(buf, (width+7)/8), n: width}
	// The string is v moved up past the padding bits, which v.BitLen() ≤
	// width leaves free at the top: v·2^pad, big-endian, right-aligned.
	putNat(s.data, v.Bits(), s.pad())
	return s, nil
}

// FromNatTo is FromBigTo for a natural given as its big-endian bytes,
// leading zero bytes allowed: BITS_width of the number they read as, built
// in *buf as FromBigTo builds it. It fails if that number does not fit in
// width bits.
func FromNatTo(buf *[]byte, nat []byte, width int) (String, error) {
	for len(nat) > 0 && nat[0] == 0 {
		nat = nat[1:]
	}
	if width < 0 {
		return String{}, fmt.Errorf("bitstr: negative width %d", width)
	}
	if len(nat) > 0 {
		if natBits := 8*len(nat) - bits.LeadingZeros8(nat[0]); natBits > width {
			return String{}, fmt.Errorf("%w: %d bits into width %d", ErrOverflow, natBits, width)
		}
	}
	s := String{data: grow(buf, (width+7)/8), n: width}
	// nat right-aligned, then moved up past the padding bits, which the
	// fit leaves free at the top.
	i := len(s.data) - len(nat)
	clear(s.data[:i])
	copy(s.data[i:], nat)
	if pad := s.pad(); pad != 0 {
		funnel(s.data, s.data[1:], s.data[0], pad)
	}
	return s, nil
}

// grow returns the first size bytes of *buf, replacing *buf by a fresh
// array of that size first when its capacity is short.
func grow(buf *[]byte, size int) []byte {
	if cap(*buf) < size {
		*buf = make([]byte, size)
	}
	return (*buf)[:size:size]
}

const wordBytes = bits.UintSize / 8

// putNat writes x·2^sh (sh < 8) into dst big-endian and right-aligned, a
// word per step, and zeroes the bytes above it; x·2^sh must fit in dst.
func putNat(dst []byte, x []big.Word, sh uint) {
	i := len(dst)
	var carry big.Word
	for _, w := range x {
		i = putWord(dst, i, w<<sh|carry)
		carry = w >> (bits.UintSize - sh) // 0 when sh is 0
	}
	if carry != 0 {
		i = putWord(dst, i, carry)
	}
	clear(dst[:i])
}

// putWord writes w big-endian so that it ends at dst[i−1] and returns where
// it starts. Below a whole word's room it writes the i low bytes: the fit
// guarantee of putNat makes the rest zero.
func putWord(dst []byte, i int, w big.Word) int {
	if i >= wordBytes {
		i -= wordBytes
		if wordBytes == 8 {
			binary.BigEndian.PutUint64(dst[i:], uint64(w))
		} else {
			binary.BigEndian.PutUint32(dst[i:], uint32(w))
		}
		return i
	}
	for ; i > 0; i-- {
		dst[i-1] = byte(w)
		w >>= 8
	}
	return 0
}

// FromBits builds a String from a slice of 0/1 values, MSB first.
func FromBits(bits []byte) (String, error) {
	s := String{data: make([]byte, (len(bits)+7)/8), n: len(bits)}
	for i, b := range bits {
		switch b {
		case 0:
		case 1:
			s.SetBit(i, 1)
		default:
			return String{}, fmt.Errorf("bitstr: bit %d has non-binary value %d", i, b)
		}
	}
	return s, nil
}

// Parse builds a String from a textual form such as "0110". The empty string
// parses to the empty bitstring.
func Parse(text string) (String, error) {
	bits := make([]byte, len(text))
	for i := 0; i < len(text); i++ {
		switch text[i] {
		case '0':
			bits[i] = 0
		case '1':
			bits[i] = 1
		default:
			return String{}, fmt.Errorf("bitstr: invalid character %q at %d", text[i], i)
		}
	}
	return FromBits(bits)
}

// SetBit sets bit i of s to b (0 or 1), in place.
func (s String) SetBit(i int, b byte) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitstr: bit index %d out of range [0,%d)", i, s.n))
	}
	mask := byte(0x80) >> uint(i%8)
	if b == 0 {
		s.data[i/8] &^= mask
	} else {
		s.data[i/8] |= mask
	}
}

// pad returns the number of padding bits in the last byte (0..7).
func (s String) pad() uint { return uint(-s.n) & 7 }

// clearPad zeroes the padding bits, restoring the package invariant after a
// kernel has written whole bytes.
func (s String) clearPad() {
	if pad := s.pad(); pad != 0 {
		s.data[len(s.data)-1] &= 0xFF << pad
	}
}

// funnel is the one shifting kernel. With b the byte stream carry‖src‖0…,
// it writes dst[i] = b[i]<<sh | b[i+1]>>(8−sh) for every i < len(dst): the
// stream moved left by sh bits, 1 ≤ sh ≤ 7. The bulk moves one 64-bit word
// per step. dst may be src itself (an in-place right shift, by 8−sh) or the
// slice that src is the tail of (an in-place left shift): each step reads
// its bytes before it writes to them or below them.
func funnel(dst, src []byte, carry byte, sh uint) {
	i := 0
	for ; i+8 <= len(dst) && i+8 <= len(src); i += 8 {
		w := binary.BigEndian.Uint64(src[i:])
		binary.BigEndian.PutUint64(dst[i:], uint64(carry)<<(56+sh)|w>>(8-sh))
		carry = byte(w)
	}
	for ; i < len(dst); i++ {
		var b byte
		if i < len(src) {
			b = src[i]
		}
		dst[i] = carry<<sh | b>>(8-sh)
		carry = b
	}
}

// Len returns the length of the bitstring in bits (the paper's |BITS|).
func (s String) Len() int { return s.n }

// Bit returns the bit at 0-based position i (the paper's B_{i+1}).
func (s String) Bit(i int) byte {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitstr: bit index %d out of range [0,%d)", i, s.n))
	}
	return s.data[i/8] >> uint(7-i%8) & 1
}

// Big returns VAL(BITS): the natural number whose binary representation the
// string is, in fresh storage. The empty string has value 0.
func (s String) Big() *big.Int {
	v := new(big.Int).SetBytes(s.data)
	return v.Rsh(v, s.pad())
}

// Slice returns the substring of bits [lo, hi) (0-based, half-open).
func (s String) Slice(lo, hi int) (String, error) {
	data, err := s.appendRange(nil, lo, hi)
	if err != nil {
		return String{}, err
	}
	return String{data: data, n: hi - lo}, nil
}

// AppendMarshalRange appends Slice(lo, hi).Marshal() — the wire form of
// bits [lo, hi) — to dst without building the String in between, so a
// caller that marshals ranges one after another reuses one buffer.
func (s String) AppendMarshalRange(dst []byte, lo, hi int) ([]byte, error) {
	if lo < 0 || hi < lo || hi > s.n {
		return dst, fmt.Errorf("%w: [%d,%d) of %d", ErrRange, lo, hi, s.n)
	}
	return s.appendRange(binary.BigEndian.AppendUint32(dst, uint32(hi-lo)), lo, hi)
}

// AppendNat appends VAL of bits [lo, hi) — the natural number the range
// represents — to dst as ⌈(hi−lo)/8⌉ big-endian bytes, leading zero bytes
// included, without building the String in between.
func (s String) AppendNat(dst []byte, lo, hi int) ([]byte, error) {
	dst, err := s.appendRange(dst, lo, hi)
	if err != nil {
		return dst, err
	}
	// The range packed MSB-first, moved down past its padding bits.
	if pad := uint(lo-hi) & 7; pad != 0 {
		nat := dst[len(dst)-(hi-lo+7)/8:]
		funnel(nat, nat, 0, 8-pad)
	}
	return dst, nil
}

// appendRange appends bits [lo, hi) of s to dst, packed with the padding
// cleared: the one slicing kernel under Slice and AppendMarshalRange.
func (s String) appendRange(dst []byte, lo, hi int) ([]byte, error) {
	if lo < 0 || hi < lo || hi > s.n {
		return dst, fmt.Errorf("%w: [%d,%d) of %d", ErrRange, lo, hi, s.n)
	}
	size := (hi - lo + 7) / 8
	dst = slices.Grow(dst, size)
	out := String{data: dst[len(dst) : len(dst)+size], n: hi - lo}
	if out.n > 0 {
		src := s.data[lo/8 : (hi+7)/8]
		if sh := uint(lo % 8); sh == 0 {
			copy(out.data, src)
		} else {
			funnel(out.data, src[1:], src[0], sh)
		}
		out.clearPad()
	}
	return dst[:len(dst)+size], nil
}

// Prefix returns the first k bits of s.
func (s String) Prefix(k int) (String, error) { return s.Slice(0, k) }

// Concat returns s followed by t.
func (s String) Concat(t String) String {
	out := String{data: make([]byte, (s.n+t.n+7)/8), n: s.n + t.n}
	copy(out.data, s.data)
	tail := out.data[s.n/8:]
	if used := uint(s.n % 8); used == 0 {
		copy(tail, t.data)
	} else {
		// t moved right by `used` bits is 0‖t moved left by 8−used; the
		// carry re-enters the bits of s that share the first byte.
		funnel(tail, t.data, tail[0]>>(8-used), 8-used)
	}
	return out
}

// AppendBit returns s with one extra bit b (0 or 1) appended.
func (s String) AppendBit(b byte) (String, error) {
	if b > 1 {
		return String{}, fmt.Errorf("bitstr: non-binary bit %d", b)
	}
	out := String{data: make([]byte, (s.n+8)/8), n: s.n + 1}
	copy(out.data, s.data)
	out.SetBit(s.n, b)
	return out, nil
}

// CopyTo returns a copy of s in *buf's storage, grown as FromBigTo grows
// it.
func (s String) CopyTo(buf *[]byte) String {
	out := String{data: grow(buf, len(s.data)), n: s.n}
	copy(out.data, s.data)
	return out
}

// SetRange overwrites bits [lo, lo+t.Len()) of s with t, in place; the bits
// of s around the range keep their values. t must not share storage with
// s.
func (s String) SetRange(lo int, t String) error {
	hi := lo + t.n
	if lo < 0 || hi > s.n {
		return fmt.Errorf("%w: %d bits at %d of %d", ErrRange, t.n, lo, s.n)
	}
	if t.n == 0 {
		return nil
	}
	dst := s.data[lo/8 : (hi+7)/8]
	last := dst[len(dst)-1]
	if used := uint(lo % 8); used == 0 {
		copy(dst, t.data)
	} else {
		// As in Concat: t moved right by `used` bits, below the bits of s
		// that share the first byte.
		funnel(dst, t.data, dst[0]>>(8-used), 8-used)
	}
	if r := uint(hi % 8); r != 0 {
		keep := byte(0xFF) >> r // the bits of s after the range
		dst[len(dst)-1] = dst[len(dst)-1]&^keep | last&keep
	}
	return nil
}

// Fill sets bits [lo, Len()) of s to b, in place: s becomes MIN_ℓ (b = 0)
// or MAX_ℓ (b = 1) of its first lo bits, with ℓ = Len().
func (s String) Fill(lo int, b byte) error {
	if b > 1 {
		return fmt.Errorf("bitstr: non-binary fill bit %d", b)
	}
	if lo < 0 || lo > s.n {
		return fmt.Errorf("%w: fill from %d of %d", ErrRange, lo, s.n)
	}
	if lo == s.n {
		return nil
	}
	tail := s.data[lo/8:]
	from := byte(0xFF) >> uint(lo%8) // the bits of tail[0] at lo and after
	if b == 0 {
		tail[0] &^= from
		clear(tail[1:])
		return nil
	}
	tail[0] |= from
	for i := 1; i < len(tail); i++ {
		tail[i] = 0xFF
	}
	s.clearPad()
	return nil
}

// Equal reports whether s and t are the same bitstring (same length, same
// bits).
func (s String) Equal(t String) bool {
	return s.n == t.n && bytes.Equal(s.data, t.data)
}

// HasPrefix reports whether p is a prefix of s.
func (s String) HasPrefix(p String) bool {
	return p.n <= s.n && s.CompareHead(p, p.n) == 0
}

// CompareHead compares the first k bits of s and t as the naturals they
// represent; it returns -1, 0, or +1. Both must be at least k bits long. No
// copy is made: a head is the leading bytes, the last one masked.
func (s String) CompareHead(t String, k int) int {
	if k < 0 || k > s.n || k > t.n {
		panic(fmt.Sprintf("bitstr: comparing the first %d bits of lengths %d and %d", k, s.n, t.n))
	}
	full := k / 8
	if c := bytes.Compare(s.data[:full], t.data[:full]); c != 0 || k%8 == 0 {
		return c
	}
	mask := byte(0xFF) << uint(8-k%8)
	return cmp.Compare(s.data[full]&mask, t.data[full]&mask)
}

// Compare compares two equal-length bitstrings as the naturals they
// represent; it returns -1, 0, or +1. It panics if the lengths differ
// (callers in this codebase always compare like-for-like widths).
func (s String) Compare(t String) int {
	if s.n != t.n {
		panic(fmt.Sprintf("bitstr: comparing lengths %d and %d", s.n, t.n))
	}
	return bytes.Compare(s.data, t.data)
}

// MinFill returns MIN_ℓ(BITS): the smallest width-bit value having s as a
// prefix (s padded on the right with zeroes). It fails if width < s.Len().
func (s String) MinFill(width int) (*big.Int, error) { return s.fillBig(width, 0) }

// MaxFill returns MAX_ℓ(BITS): the largest width-bit value having s as a
// prefix (s padded on the right with ones). It fails if width < s.Len().
func (s String) MaxFill(width int) (*big.Int, error) { return s.fillBig(width, 1) }

func (s String) fillBig(width int, b byte) (*big.Int, error) {
	f, err := s.FillTo(width, b)
	if err != nil {
		return nil, err
	}
	return f.Big(), nil
}

// FillTo returns s extended to width bits by appending copies of bit b: the
// bitstring form of MIN_ℓ (b=0) or MAX_ℓ (b=1).
func (s String) FillTo(width int, b byte) (String, error) {
	if b > 1 {
		return String{}, fmt.Errorf("bitstr: non-binary fill bit %d", b)
	}
	if width < s.n {
		return String{}, fmt.Errorf("%w: width %d < length %d", ErrRange, width, s.n)
	}
	out := String{data: make([]byte, (width+7)/8), n: width}
	copy(out.data, s.data)
	return out, out.Fill(s.n, b)
}

// String renders the bitstring as text, e.g. "0101".
func (s String) String() string {
	var b strings.Builder
	b.Grow(s.n)
	for i := 0; i < s.n; i++ {
		b.WriteByte('0' + s.Bit(i))
	}
	return b.String()
}

// Marshal encodes the bitstring for the wire: 4-byte big-endian bit length
// followed by the packed bytes.
func (s String) Marshal() []byte {
	out := make([]byte, 4+len(s.data))
	binary.BigEndian.PutUint32(out, uint32(s.n))
	copy(out[4:], s.data)
	return out
}

// Unmarshal decodes a bitstring produced by Marshal, as a view of raw's
// bytes: the String is valid as long as raw is. It rejects malformed input
// (wrong byte count, nonzero padding bits) so that byzantine payloads can
// never yield an inconsistent String.
func Unmarshal(raw []byte) (String, error) {
	if len(raw) < 4 {
		return String{}, ErrCorrupt
	}
	// The length is checked as an unsigned number, against the body and
	// against int's range, before it becomes an int: no 32-bit value wraps
	// on any platform.
	bits := binary.BigEndian.Uint32(raw)
	body := raw[4:]
	if uint64(bits) > math.MaxInt || (uint64(bits)+7)/8 != uint64(len(body)) {
		return String{}, ErrCorrupt
	}
	s := String{data: body[:len(body):len(body)], n: int(bits)}
	// Reject nonzero padding bits: the package invariant, and what makes
	// equal strings have equal encodings.
	if pad := s.pad(); pad != 0 && s.data[len(s.data)-1]&(1<<pad-1) != 0 {
		return String{}, ErrCorrupt
	}
	return s, nil
}

// NatBitLen returns the paper's |BITS(v)| for v ∈ ℕ: the length of the
// minimal binary representation, with |BITS(0)| defined as 1.
func NatBitLen(v *big.Int) int {
	if v.Sign() == 0 {
		return 1
	}
	return v.BitLen()
}
