package bitstr

import (
	"math/big"
	"math/rand"
	"testing"
)

// The kernels at ℓ = 2²² bits, the operand length of the benchmark's
// bitstr probes (bench/probes.go). Each moves about ℓ/8 = 512 KiB; a kernel
// that has fallen back to one bit per step shows as milliseconds instead of
// tens of microseconds, and scripts/ci.sh pins the allocs/op of Slice,
// Concat, FillTo (1, the result) and Compare (0).

const benchBits = 1 << 22

func benchOperand(b *testing.B) (String, *big.Int) {
	b.Helper()
	raw := make([]byte, benchBits/8)
	rand.New(rand.NewSource(1)).Read(raw)
	raw[0] |= 0x80 // full bit length, so FromBig has no slack at the top
	v := new(big.Int).SetBytes(raw)
	s, err := FromBig(v, benchBits)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(benchBits / 8)
	b.ReportAllocs()
	b.ResetTimer()
	return s, v
}

var sink int

func BenchmarkBitstrFromBig_l2p22(b *testing.B) {
	_, v := benchOperand(b)
	for i := 0; i < b.N; i++ {
		s, _ := FromBig(v, benchBits)
		sink += s.Len()
	}
}

// One bit wider than the value: every byte goes through the shift.
func BenchmarkBitstrFromBigUnaligned_l2p22(b *testing.B) {
	_, v := benchOperand(b)
	for i := 0; i < b.N; i++ {
		s, _ := FromBig(v, benchBits+1)
		sink += s.Len()
	}
}

func BenchmarkBitstrBig_l2p22(b *testing.B) {
	s, _ := benchOperand(b)
	for i := 0; i < b.N; i++ {
		sink += s.Big().BitLen()
	}
}

func BenchmarkBitstrSliceAligned_l2p22(b *testing.B) {
	s, _ := benchOperand(b)
	for i := 0; i < b.N; i++ {
		t, _ := s.Slice(benchBits/4, 3*benchBits/4)
		sink += t.Len()
	}
}

// The cut of the benchmark's bitstr.slice_ms probe: lo one bit off a byte
// boundary.
func BenchmarkBitstrSliceUnaligned_l2p22(b *testing.B) {
	s, _ := benchOperand(b)
	for i := 0; i < b.N; i++ {
		t, _ := s.Slice(benchBits/4+1, 3*benchBits/4)
		sink += t.Len()
	}
}

func BenchmarkBitstrConcatUnaligned_l2p22(b *testing.B) {
	s, _ := benchOperand(b)
	head, _ := s.Prefix(benchBits/2 + 3)
	tail, _ := s.Slice(benchBits/2+3, benchBits)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += head.Concat(tail).Len()
	}
}

// Equal strings: Compare has to walk both to the end.
func BenchmarkBitstrCompareEqual_l2p22(b *testing.B) {
	s, v := benchOperand(b)
	t, _ := FromBig(v, benchBits)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += s.Compare(t) + 1
	}
}

func BenchmarkBitstrFillTo_l2p22(b *testing.B) {
	s, _ := benchOperand(b)
	head, _ := s.Prefix(benchBits/2 + 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, _ := head.FillTo(benchBits, 1)
		sink += t.Len()
	}
}
