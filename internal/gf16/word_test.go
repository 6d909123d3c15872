package gf16

import (
	"bytes"
	"math/rand"
	"testing"
)

// refMulAcc is the independent oracle for the word kernels: scalar Mul
// (itself cross-checked against the shift-and-reduce multiplier in
// gf16_test.go) applied symbol by symbol on the split layout.
func refMulAcc(c Elem, dstLo, dstHi, srcLo, srcHi []byte) {
	for i := range dstLo {
		v := Mul(c, Elem(uint16(srcHi[i])<<8|uint16(srcLo[i])))
		dstLo[i] ^= byte(v)
		dstHi[i] ^= byte(v >> 8)
	}
}

// mulAccWord is dst ^= c·src over one split-layout vector: DotWords on a
// single column, which is how the codec reaches the word kernel.
func mulAccWord(t *MulTable, dstLo, dstHi, srcLo, srcHi []byte) {
	DotWords([]MulTable{*t}, dstLo, dstHi, srcLo, srcHi, len(dstLo))
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// TestMakeMulTable checks every table entry against scalar Mul.
func TestMakeMulTable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	coeffs := []Elem{0, 1, 2, 0x8000, 0xFFFF, 0x100B}
	for i := 0; i < 32; i++ {
		coeffs = append(coeffs, Elem(rng.Intn(1<<16)))
	}
	var tab MulTable
	for _, c := range coeffs {
		MakeMulTable(c, &tab)
		for p := 0; p < 4; p++ {
			for m := 0; m < 16; m++ {
				want := Mul(c, Elem(m)<<(4*p))
				if tab[32*p+m] != byte(want) || tab[32*p+16+m] != byte(want>>8) {
					t.Fatalf("c=%#x p=%d m=%d: table %02x%02x, want %04x",
						c, p, m, tab[32*p+16+m], tab[32*p+m], want)
				}
			}
		}
	}
}

// TestMulAccWord differentially tests the word kernel (assembly path
// included when available) against the scalar oracle, across lengths that
// cover the vector width boundary and the generic tail.
func TestMulAccWord(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 7, 31, 32, 33, 63, 64, 96, 100, 255, 1024} {
		for trial := 0; trial < 8; trial++ {
			c := Elem(rng.Intn(1 << 16))
			srcLo, srcHi := randBytes(rng, n), randBytes(rng, n)
			gotLo, gotHi := randBytes(rng, n), randBytes(rng, n)
			wantLo := append([]byte(nil), gotLo...)
			wantHi := append([]byte(nil), gotHi...)

			var tab MulTable
			MakeMulTable(c, &tab)
			mulAccWord(&tab, gotLo, gotHi, srcLo, srcHi)
			refMulAcc(c, wantLo, wantHi, srcLo, srcHi)
			if !bytes.Equal(gotLo, wantLo) || !bytes.Equal(gotHi, wantHi) {
				t.Fatalf("n=%d c=%#x: word kernel diverges from scalar Mul", n, c)
			}
		}
	}
}

// TestMulAccWordZeroCoefficient: c=0 must leave dst untouched.
func TestMulAccWordZeroCoefficient(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 65
	srcLo, srcHi := randBytes(rng, n), randBytes(rng, n)
	dstLo, dstHi := randBytes(rng, n), randBytes(rng, n)
	wantLo := append([]byte(nil), dstLo...)
	wantHi := append([]byte(nil), dstHi...)
	var tab MulTable
	MakeMulTable(0, &tab)
	mulAccWord(&tab, dstLo, dstHi, srcLo, srcHi)
	if !bytes.Equal(dstLo, wantLo) || !bytes.Equal(dstHi, wantHi) {
		t.Fatal("multiplying by zero changed the accumulator")
	}
}

// TestDotWords differentially tests the fused row kernel against repeated
// scalar multiply-accumulates over strided column layouts, including
// strides wider than the row and non-vector-width tails.
func TestDotWords(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, tc := range []struct{ k, n, stride int }{
		{1, 32, 32}, {3, 32, 40}, {7, 64, 64}, {8, 96, 128},
		{21, 31, 31}, {13, 100, 112}, {171, 192, 192}, {5, 33, 48},
	} {
		tabs := make([]MulTable, tc.k)
		coeffs := make([]Elem, tc.k)
		for j := range tabs {
			coeffs[j] = Elem(rng.Intn(1 << 16))
			MakeMulTable(coeffs[j], &tabs[j])
		}
		colsLo := randBytes(rng, (tc.k-1)*tc.stride+tc.n)
		colsHi := randBytes(rng, (tc.k-1)*tc.stride+tc.n)
		gotLo, gotHi := randBytes(rng, tc.n), randBytes(rng, tc.n)
		wantLo := append([]byte(nil), gotLo...)
		wantHi := append([]byte(nil), gotHi...)

		DotWords(tabs, gotLo, gotHi, colsLo, colsHi, tc.stride)
		for j := 0; j < tc.k; j++ {
			off := j * tc.stride
			refMulAcc(coeffs[j], wantLo, wantHi, colsLo[off:off+tc.n], colsHi[off:off+tc.n])
		}
		if !bytes.Equal(gotLo, wantLo) || !bytes.Equal(gotHi, wantHi) {
			t.Fatalf("k=%d n=%d stride=%d: DotWords diverges from scalar reference",
				tc.k, tc.n, tc.stride)
		}
	}
}

// TestGenericVsFastPath pins the assembly kernel byte-for-byte against the
// portable generic kernel on the same inputs. On targets without the fast
// path both sides run the generic code and the test is vacuous but cheap.
func TestGenericVsFastPath(t *testing.T) {
	if !HasFastPath() {
		t.Skip("no vector kernel on this target")
	}
	rng := rand.New(rand.NewSource(5))
	k, n, stride := 17, 256, 288
	tabs := make([]MulTable, k)
	for j := range tabs {
		MakeMulTable(Elem(rng.Intn(1<<16)), &tabs[j])
	}
	colsLo := randBytes(rng, (k-1)*stride+n)
	colsHi := randBytes(rng, (k-1)*stride+n)
	fastLo, fastHi := make([]byte, n), make([]byte, n)
	genLo, genHi := make([]byte, n), make([]byte, n)

	dotWordsVec(&tabs[0][0], k, &fastLo[0], &fastHi[0], &colsLo[0], &colsHi[0], stride, n)
	for j := range tabs {
		off := j * stride
		mulAccGeneric(&tabs[j], genLo, genHi, colsLo[off:off+n], colsHi[off:off+n])
	}
	if !bytes.Equal(fastLo, genLo) || !bytes.Equal(fastHi, genHi) {
		t.Fatal("assembly kernel diverges from generic kernel")
	}
}

// TestPackUnpack: the split layout round-trips the wire layout exactly.
// The lengths cover the word bulk alone, the byte tail alone, and both.
func TestPackUnpack(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{0, 1, 7, 8, 9, 16, 97} {
		src := randBytes(rng, 2*n)
		lo, hi := make([]byte, n), make([]byte, n)
		Unpack(lo, hi, src)
		back := make([]byte, 2*n)
		Pack(back, lo, hi)
		if !bytes.Equal(src, back) {
			t.Fatalf("n=%d: Pack(Unpack(x)) != x", n)
		}
		for i := 0; i < n; i++ {
			want := Elem(uint16(src[2*i])<<8 | uint16(src[2*i+1]))
			if got := Elem(uint16(hi[i])<<8 | uint16(lo[i])); got != want {
				t.Fatalf("n=%d symbol %d: got %#x want %#x", n, i, got, want)
			}
		}
	}
}

// TestMulAccWordAgainstTableKernel ties the word kernels to the
// MulAddSlice table kernel, the codec's previous hot path, closing the
// loop between the two generations of kernels.
func TestMulAccWordAgainstTableKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 513
	c := Elem(0xBEEF)
	src := make([]Elem, n)
	dst := make([]Elem, n)
	for i := range src {
		src[i] = Elem(rng.Intn(1 << 16))
		dst[i] = Elem(rng.Intn(1 << 16))
	}
	srcLo, srcHi := make([]byte, n), make([]byte, n)
	dstLo, dstHi := make([]byte, n), make([]byte, n)
	for i := range src {
		srcLo[i], srcHi[i] = byte(src[i]), byte(src[i]>>8)
		dstLo[i], dstHi[i] = byte(dst[i]), byte(dst[i]>>8)
	}

	MulAddSlice(c, dst, src)
	var tab MulTable
	MakeMulTable(c, &tab)
	mulAccWord(&tab, dstLo, dstHi, srcLo, srcHi)
	for i := range dst {
		if got := Elem(uint16(dstHi[i])<<8 | uint16(dstLo[i])); got != dst[i] {
			t.Fatalf("i=%d: word kernel %#x, table kernel %#x", i, got, dst[i])
		}
	}
}
