package hashing

import "encoding/binary"

// The transcript digests (a Session's, faultnet's) are FNV-1a folds: not
// collision-resistant, only a cheap, deterministic fingerprint that two runs
// compare. They share these two steps.

// FNVOffset is a digest's starting value. It is FNV-1a's 64-bit offset
// basis, 14695981039346656037, with the last digit dropped, as the digests
// have always been seeded; every pinned digest starts from it.
const FNVOffset = 1469598103934665603

const fnvPrime = 1099511628211

// FNVWord folds v into the digest d one byte at a time, least significant
// byte first: FNV-1a over v's eight little-endian bytes.
func FNVWord(d, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		d = (d ^ (v & 0xff)) * fnvPrime
		v >>= 8
	}
	return d
}

// FNVBytes folds p into the digest d a word at a time: each step XORs eight
// bytes of p, read little-endian, into d and multiplies by the FNV prime,
// and the len(p)%8 bytes left over are folded one per step, as FNV-1a does.
// A payload shorter than eight bytes therefore digests exactly as FNV-1a.
func FNVBytes(d uint64, p []byte) uint64 {
	for ; len(p) >= 8; p = p[8:] {
		d = (d ^ binary.LittleEndian.Uint64(p)) * fnvPrime
	}
	for _, b := range p {
		d = (d ^ uint64(b)) * fnvPrime
	}
	return d
}
