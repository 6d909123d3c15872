package gf16

import (
	"math/rand"
	"testing"
)

// randElems draws a vector with a deliberate sprinkling of zeros, since the
// kernels special-case zero symbols.
func randElems(rng *rand.Rand, n int) []Elem {
	out := make([]Elem, n)
	for i := range out {
		if rng.Intn(8) == 0 {
			continue
		}
		out[i] = Elem(rng.Intn(1 << 16))
	}
	return out
}

func TestMulAddSliceMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		c := Elem(rng.Intn(1 << 16))
		if trial == 0 {
			c = 0
		}
		src := randElems(rng, 1+rng.Intn(100))
		dst := randElems(rng, len(src))
		want := make([]Elem, len(src))
		for i := range src {
			want[i] = Add(dst[i], Mul(c, src[i]))
		}
		MulAddSlice(c, dst, src)
		for i := range src {
			if dst[i] != want[i] {
				t.Fatalf("c=%#x i=%d: got %#x want %#x", c, i, dst[i], want[i])
			}
		}
	}
}

// TestKernelsAllocFree pins the kernels' zero-allocation guarantee — they
// run in the innermost codec loops, where any per-call allocation would
// dominate the profile.
func TestKernelsAllocFree(t *testing.T) {
	src := randElems(rand.New(rand.NewSource(4)), 4096)
	dst := make([]Elem, len(src))
	lo, hi := make([]byte, len(src)), make([]byte, len(src))
	dstLo, dstHi := make([]byte, len(src)), make([]byte, len(src))
	tabs := make([]MulTable, 1)
	MakeMulTable(0x1234, &tabs[0])
	for name, fn := range map[string]func(){
		"MulAddSlice": func() { MulAddSlice(0x1234, dst, src) },
		"DotWords":    func() { DotWords(tabs, dstLo, dstHi, lo, hi, len(lo)) },
	} {
		if allocs := testing.AllocsPerRun(10, fn); allocs != 0 {
			t.Errorf("%s allocates %.0f times per call; want 0", name, allocs)
		}
	}
}
