package gf16

import "testing"

func BenchmarkMul(b *testing.B) {
	var acc Elem = 1
	for i := 0; i < b.N; i++ {
		acc = Mul(acc, Elem(i)|1)
	}
	sink = acc
}

func BenchmarkInv(b *testing.B) {
	var acc Elem
	for i := 0; i < b.N; i++ {
		acc ^= Inv(Elem(i) | 1)
	}
	sink = acc
}

// The slice-kernel benchmarks process a 4096-symbol stripe — the codec's
// typical working-set shape — and must report 0 allocs/op.
func BenchmarkMulAddSlice_4096(b *testing.B) {
	src := make([]Elem, 4096)
	dst := make([]Elem, 4096)
	for i := range src {
		src[i] = Elem(i*2654435761 + 1)
	}
	b.SetBytes(int64(2 * len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MulAddSlice(0x1234, dst, src)
	}
	sink = dst[0]
}

// BenchmarkScalarMulLoop is the pre-kernel baseline shape: the same
// multiply-accumulate expressed with scalar Mul/Add calls per element.
func BenchmarkScalarMulLoop_4096(b *testing.B) {
	src := make([]Elem, 4096)
	dst := make([]Elem, 4096)
	for i := range src {
		src[i] = Elem(i*2654435761 + 1)
	}
	b.SetBytes(int64(2 * len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j, v := range src {
			dst[j] = Add(dst[j], Mul(0x1234, v))
		}
	}
	sink = dst[0]
}

// BenchmarkMulAccWord_8KiB is the word-kernel counterpart of
// BenchmarkMulAddSlice_4096: one coefficient streamed over 4096 symbols in
// split layout (a one-column DotWords).
func BenchmarkMulAccWord_8KiB(b *testing.B) {
	n := 4096
	srcLo, srcHi := make([]byte, n), make([]byte, n)
	dstLo, dstHi := make([]byte, n), make([]byte, n)
	for i := range srcLo {
		srcLo[i], srcHi[i] = byte(i*31+1), byte(i*17+3)
	}
	var tab MulTable
	MakeMulTable(0x1234, &tab)
	b.SetBytes(int64(2 * n))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mulAccWord(&tab, dstLo, dstHi, srcLo, srcHi)
	}
	sink = Elem(dstLo[0])
}

// BenchmarkDotWords_decodeRow is the exact hot shape of the cached-plan
// interpolated decode at (n=256, k=171, 64 KiB payloads): one missing
// symbol column rebuilt as a 171-column fused dot product over 192-symbol
// stripes. Bytes/op counts the symbols streamed (k·stripes·2).
func BenchmarkDotWords_decodeRow(b *testing.B) {
	k, stripes := 171, 192
	tabs := make([]MulTable, k)
	for j := range tabs {
		MakeMulTable(Elem(j*2654435761+7), &tabs[j])
	}
	colsLo := make([]byte, k*stripes)
	colsHi := make([]byte, k*stripes)
	for i := range colsLo {
		colsLo[i], colsHi[i] = byte(i*31+1), byte(i*17+3)
	}
	dstLo, dstHi := make([]byte, stripes), make([]byte, stripes)
	b.SetBytes(int64(2 * k * stripes))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		DotWords(tabs, dstLo, dstHi, colsLo, colsHi, stripes)
	}
	sink = Elem(dstLo[0])
}

var sink Elem
