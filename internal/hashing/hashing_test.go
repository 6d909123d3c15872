package hashing

import (
	"crypto/sha256"
	"encoding/binary"
	"hash/fnv"
	"testing"
)

func TestSumMatchesSHA256(t *testing.T) {
	want := sha256.Sum256([]byte("hello world"))
	if got := Sum([]byte("hello "), []byte("world")); got != Digest(want) {
		t.Error("concatenated Sum differs from sha256 of the whole")
	}
	if Sum() != Digest(sha256.Sum256(nil)) {
		t.Error("empty Sum wrong")
	}
}

func TestHasherMatchesSum(t *testing.T) {
	h := NewHasher()
	inputs := [][][]byte{
		nil,
		{[]byte("hello "), []byte("world")},
		{nil},
		{[]byte{0x00}, make([]byte, 1000)},
		{[]byte("a"), []byte("b"), []byte("c")},
	}
	for i, parts := range inputs {
		if got, want := h.Sum(parts...), Sum(parts...); got != want {
			t.Errorf("case %d: Hasher.Sum = %x, Sum = %x", i, got, want)
		}
	}
	// Reuse after a large input must not leak state into the next hash.
	if got, want := h.Sum([]byte("x")), Sum([]byte("x")); got != want {
		t.Errorf("reused Hasher diverged: %x != %x", got, want)
	}
}

func TestHasherAllocFree(t *testing.T) {
	h := NewHasher()
	p, q := []byte("some leaf value"), []byte("sibling digest bytes")
	if n := testing.AllocsPerRun(200, func() { _ = h.Sum(p, q) }); n != 0 {
		t.Errorf("Hasher.Sum allocates %v times per call, want 0", n)
	}
}

func TestFromBytes(t *testing.T) {
	d := Sum([]byte("x"))
	got, ok := FromBytes(d[:])
	if !ok || got != d {
		t.Error("round trip failed")
	}
	if _, ok := FromBytes(d[:31]); ok {
		t.Error("short digest accepted")
	}
	if _, ok := FromBytes(append(d[:], 0)); ok {
		t.Error("long digest accepted")
	}
	if _, ok := FromBytes(nil); ok {
		t.Error("nil digest accepted")
	}
}

func TestKappaConsistency(t *testing.T) {
	if Kappa != 8*Size || Size != sha256.Size {
		t.Errorf("κ=%d, size=%d inconsistent", Kappa, Size)
	}
}

// TestFNVBytes: below eight bytes the fold is FNV-1a (hash/fnv), so
// digests over short payloads do not move; from eight bytes on each step
// takes a little-endian word, and the tail goes byte by byte.
func TestFNVBytes(t *testing.T) {
	const fnvBasis = 14695981039346656037 // hash/fnv's 64-bit offset basis
	for n := 0; n < 8; n++ {
		p := []byte("convex!")[:n]
		h := fnv.New64a()
		h.Write(p)
		if got := FNVBytes(fnvBasis, p); got != h.Sum64() {
			t.Fatalf("%d bytes: %#x, FNV-1a %#x", n, got, h.Sum64())
		}
	}
	p := []byte("0123456789abcdefXYZ")
	want := uint64(FNVOffset)
	for _, w := range []uint64{binary.LittleEndian.Uint64(p), binary.LittleEndian.Uint64(p[8:])} {
		want = (want ^ w) * fnvPrime
	}
	for _, b := range p[16:] {
		want = (want ^ uint64(b)) * fnvPrime
	}
	if got := FNVBytes(FNVOffset, p); got != want {
		t.Fatalf("19 bytes: %#x, want %#x", got, want)
	}
	var word [8]byte
	binary.LittleEndian.PutUint64(word[:], 0x0123456789abcdef)
	h := fnv.New64a()
	h.Write(word[:])
	if got := FNVWord(fnvBasis, 0x0123456789abcdef); got != h.Sum64() {
		t.Fatalf("FNVWord %#x, FNV-1a over the word's little-endian bytes %#x", got, h.Sum64())
	}
}
