package gf16

// Word kernels: bit-packed bulk multiply-accumulate for the Reed-Solomon
// matrix products.
//
// The table kernels in kernels.go resolve every symbol through the shared
// 256 KiB log/exp tables — two dependent lookups per symbol that miss L1
// constantly once a matrix product streams real data. The word kernels
// instead specialize each coefficient into a 128-byte nibble table
// (MulTable): multiplication by a constant is GF(2)-linear, so the product
// c·v is the XOR of four table entries, one per 4-bit nibble of v — two
// nibbles per byte, with the low and high output bytes tabulated
// separately. The working set per coefficient is two cache lines, and the
// lookups are independent, not chained.
//
// Operands use a split ("structure of arrays") layout: a vector of n
// symbols is carried as two n-byte slices, the low bytes and the high
// bytes. This is what makes the kernels word-oriented: the generic path
// streams the operands as machine words of 8 symbol-halves, and the vector
// paths process 32 symbols per step by running all four nibble lookups as
// in-register byte shuffles — VPSHUFB on amd64 (word_amd64.s), TBL on
// arm64 (word_arm64.s); the same 128-byte MulTable serves all three.
// Pack/Unpack convert between this layout and the big-endian wire layout
// of package rs shares.
//
// DotWords fuses a whole matrix row — dst ^= Σ_j tabs[j]·col_j — so the
// accumulator stays in registers across the column walk instead of being
// re-read per coefficient. The rs decode plans (see internal/rs) cache one
// MulTable per matrix coefficient per erasure pattern, which turns
// interpolated decoding into pure streaming over these kernels.
//
// Equivalence with the scalar Mul and the table kernels is pinned by
// differential tests (word_test.go); the table kernels remain the
// reference and the fallback for targets without the assembly path.

import "encoding/binary"

// MulTable is the nibble-decomposition of multiplication by one constant
// coefficient c. Layout, for nibble position p in 0..3 (p counts 4-bit
// groups from the least significant bit of the symbol):
//
//	t[32p+m]    = low byte of c·(m << 4p)   for m in 0..15
//	t[32p+16+m] = high byte of c·(m << 4p)
//
// So c·v = Σ_p entry(p, nibble_p(v)), with the low and high result bytes
// accumulated from the two 16-byte halves. 128 bytes per coefficient.
type MulTable [128]byte

// MakeMulTable fills t with the nibble tables for multiplication by c.
func MakeMulTable(c Elem, t *MulTable) {
	for p := 0; p < 4; p++ {
		for m := 0; m < 16; m++ {
			v := Mul(c, Elem(m)<<(4*p))
			t[32*p+m] = byte(v)
			t[32*p+16+m] = byte(v >> 8)
		}
	}
}

// DotWords accumulates a full matrix row: dst ^= Σ_j tabs[j]·col_j, where
// column j occupies colsLo[j*stride:] / colsHi[j*stride:] in split layout.
// len(dstLo) symbols are processed per column; stride must be at least
// len(dstLo) and the cols slices must cover len(tabs) columns. This is the
// innermost kernel of the cached-plan Reed-Solomon decode: one call
// reconstructs one missing symbol column from all k present columns.
func DotWords(tabs []MulTable, dstLo, dstHi, colsLo, colsHi []byte, stride int) {
	n := len(dstLo)
	k := len(tabs)
	if len(dstHi) != n {
		panic("gf16: DotWords length mismatch")
	}
	if k == 0 || n == 0 {
		return
	}
	if stride < n || len(colsLo) < (k-1)*stride+n || len(colsHi) < (k-1)*stride+n {
		panic("gf16: DotWords column layout too short")
	}
	n32 := n &^ 31
	if hasFastPath && n32 > 0 {
		dotWordsVec(&tabs[0][0], k, &dstLo[0], &dstHi[0], &colsLo[0], &colsHi[0], stride, n32)
		if n32 == n {
			return
		}
	} else {
		n32 = 0
	}
	for j := range tabs {
		off := j * stride
		mulAccGeneric(&tabs[j], dstLo[n32:], dstHi[n32:], colsLo[off+n32:off+n], colsHi[off+n32:off+n])
	}
}

// mulAccGeneric is the portable word kernel: four L1-resident nibble
// lookups per symbol, no branches, no shared-table traffic. It is the
// reference the assembly path is differentially tested against, and the
// tail handler for lengths that are not a multiple of the vector width.
func mulAccGeneric(t *MulTable, dstLo, dstHi, srcLo, srcHi []byte) {
	srcLo = srcLo[:len(dstLo)]
	srcHi = srcHi[:len(dstLo)]
	dstHi = dstHi[:len(dstLo)]
	for i := range dstLo {
		lo, hi := srcLo[i], srcHi[i]
		n0, n1 := lo&15, lo>>4
		n2, n3 := hi&15, hi>>4
		dstLo[i] ^= t[n0] ^ t[32+n1] ^ t[64+n2] ^ t[96+n3]
		dstHi[i] ^= t[16+n0] ^ t[48+n1] ^ t[80+n2] ^ t[112+n3]
	}
}

// HasFastPath reports whether the vectorized kernel path is active (amd64
// with AVX2, or arm64 where NEON is architecturally guaranteed). The
// generic kernels are used otherwise; callers that
// keep a wholly different slow path (package rs) consult this to decide
// whether the split-layout round trip pays for itself.
func HasFastPath() bool { return hasFastPath }

// Unpack splits big-endian 16-bit symbols (the rs share wire layout) into
// the split layout consumed by the word kernels: lo[i] and hi[i] receive
// the low and high bytes of symbol i. len(src) must be at least 2·len(lo);
// lo and hi must have equal length. The bulk moves eight symbols per step
// in 64-bit words, in portable Go.
func Unpack(lo, hi, src []byte) {
	if len(hi) != len(lo) || len(src) < 2*len(lo) {
		panic("gf16: Unpack length mismatch")
	}
	i := 0
	for ; i+8 <= len(lo); i += 8 {
		a := binary.LittleEndian.Uint64(src[2*i:])
		b := binary.LittleEndian.Uint64(src[2*i+8:])
		binary.LittleEndian.PutUint64(hi[i:], evenBytes(a)|evenBytes(b)<<32)
		binary.LittleEndian.PutUint64(lo[i:], evenBytes(a>>8)|evenBytes(b>>8)<<32)
	}
	for ; i < len(lo); i++ {
		hi[i] = src[2*i]
		lo[i] = src[2*i+1]
	}
}

// Pack is the inverse of Unpack: it interleaves split-layout halves back
// into big-endian 16-bit symbols. len(dst) must be at least 2·len(lo).
func Pack(dst, lo, hi []byte) {
	if len(hi) != len(lo) || len(dst) < 2*len(lo) {
		panic("gf16: Pack length mismatch")
	}
	i := 0
	for ; i+8 <= len(lo); i += 8 {
		h := binary.LittleEndian.Uint64(hi[i:])
		l := binary.LittleEndian.Uint64(lo[i:])
		binary.LittleEndian.PutUint64(dst[2*i:], spreadBytes(h)|spreadBytes(l)<<8)
		binary.LittleEndian.PutUint64(dst[2*i+8:], spreadBytes(h>>32)|spreadBytes(l>>32)<<8)
	}
	for ; i < len(lo); i++ {
		dst[2*i] = hi[i]
		dst[2*i+1] = lo[i]
	}
}

// evenBytes gathers bytes 0, 2, 4 and 6 of x (byte 0 least significant)
// into its low four bytes, in order, and zeroes the rest.
func evenBytes(x uint64) uint64 {
	x &= 0x00FF00FF00FF00FF
	x = (x | x>>8) & 0x0000FFFF0000FFFF
	return (x | x>>16) & 0x00000000FFFFFFFF
}

// spreadBytes is evenBytes' inverse: bytes 0–3 of x move to bytes 0, 2, 4
// and 6, and the odd bytes are zero.
func spreadBytes(x uint64) uint64 {
	x &= 0x00000000FFFFFFFF
	x = (x | x<<16) & 0x0000FFFF0000FFFF
	return (x | x<<8) & 0x00FF00FF00FF00FF
}
