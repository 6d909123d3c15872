package rs

import (
	"math/rand"
	"testing"
)

func benchCodec(b *testing.B, n, k, payloadLen int, decodeIndices func(rng *rand.Rand) []int) {
	b.Helper()
	c, err := NewCodec(n, k)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, payloadLen)
	rng := rand.New(rand.NewSource(1))
	rng.Read(payload)
	shares, err := c.Encode(payload)
	if err != nil {
		b.Fatal(err)
	}
	idx := decodeIndices(rng)
	sub := make([]Share, 0, len(idx))
	for _, i := range idx {
		sub = append(sub, shares[i])
	}
	b.SetBytes(int64(payloadLen))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decode(sub); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncode_n31_k21_64KiB(b *testing.B) {
	c, _ := NewCodec(31, 21)
	payload := make([]byte, 64<<10)
	rand.New(rand.NewSource(2)).Read(payload)
	b.SetBytes(int64(len(payload)))
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeSystematic_n31_k21_64KiB(b *testing.B) {
	benchCodec(b, 31, 21, 64<<10, func(*rand.Rand) []int {
		idx := make([]int, 21)
		for i := range idx {
			idx[i] = i
		}
		return idx
	})
}

func BenchmarkDecodeInterpolated_n31_k21_64KiB(b *testing.B) {
	benchCodec(b, 31, 21, 64<<10, func(rng *rand.Rand) []int {
		return rng.Perm(31)[:21]
	})
}

// The (n=256, k=171) benchmarks are the paper's large-sweep regime: t = 85,
// k = n − t, 64 KiB payloads — the configuration the hot-path passes were
// measured on (DESIGN.md §2.4, §2.8).
func BenchmarkEncode_n256_k171_64KiB(b *testing.B) {
	c, _ := NewCodec(256, 171)
	payload := make([]byte, 64<<10)
	rand.New(rand.NewSource(2)).Read(payload)
	b.SetBytes(int64(len(payload)))
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeSystematic_n256_k171_64KiB(b *testing.B) {
	benchCodec(b, 256, 171, 64<<10, func(*rand.Rand) []int {
		idx := make([]int, 171)
		for i := range idx {
			idx[i] = i
		}
		return idx
	})
}

func BenchmarkDecodeInterpolated_n256_k171_64KiB(b *testing.B) {
	benchCodec(b, 256, 171, 64<<10, func(rng *rand.Rand) []int {
		return rng.Perm(256)[:171]
	})
}

// The n = 7, k = 5, 256 KiB shape is long_input's codec (benchmark
// workloads, ℓ = 2²¹ bits). The To benchmarks reuse one buffer and one
// Scratch, as baplus.LongLanes does; ci.sh pins EncodeTo at 0 allocs/op
// and DecodeTo at 1 (its output: it passes no buffer).
func benchLongShape(b *testing.B) (*Codec, []byte) {
	b.Helper()
	c, err := NewCodec(7, 5)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 256<<10)
	rand.New(rand.NewSource(2)).Read(payload)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	return c, payload
}

func BenchmarkEncode_n7_k5_256KiB(b *testing.B) {
	c, payload := benchLongShape(b)
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeTo_n7_k5_256KiB(b *testing.B) {
	c, payload := benchLongShape(b)
	var s Scratch
	buf := make([]byte, c.N()*c.ShareSize(len(payload)))
	if _, err := c.EncodeTo(&s, buf, payload); err != nil { // grows s
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.EncodeTo(&s, buf, payload); err != nil {
			b.Fatal(err)
		}
	}
}

// The decode benchmarks take the last k shares, so two data columns are
// interpolated, as bench/'s rs.decode_mb_s probe does.
func BenchmarkDecode_n7_k5_256KiB(b *testing.B) {
	c, payload := benchLongShape(b)
	shares, err := c.Encode(payload)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decode(shares[2:]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeTo_n7_k5_256KiB(b *testing.B) {
	c, payload := benchLongShape(b)
	shares, err := c.Encode(payload)
	if err != nil {
		b.Fatal(err)
	}
	var s Scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.DecodeTo(&s, nil, shares[2:]); err != nil {
			b.Fatal(err)
		}
	}
}
