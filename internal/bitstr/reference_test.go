package bitstr

import (
	"fmt"
	"math/big"
	"testing"
)

// The bit-at-a-time implementations the word kernels replaced. They are the
// oracles of FuzzKernelsVsReference and the kernel tests: each is the
// definition of its operation read straight off the paper's notation, one
// bit per step, with no reliance on the padding invariant.

func refNew(n int) String { return String{data: make([]byte, (n+7)/8), n: n} }

// refFromBytes takes the first n bits of raw, MSB first.
func refFromBytes(raw []byte, n int) String {
	s := refNew(n)
	for i := 0; i < n; i++ {
		if raw[i/8]>>uint(7-i%8)&1 == 1 {
			s.SetBit(i, 1)
		}
	}
	return s
}

func refFromBig(v *big.Int, width int) String {
	s := refNew(width)
	for i := 0; i < width; i++ {
		if v.Bit(width-1-i) == 1 {
			s.SetBit(i, 1)
		}
	}
	return s
}

func refBig(s String) *big.Int {
	v := new(big.Int)
	for i := 0; i < s.n; i++ {
		if s.Bit(i) == 1 {
			v.SetBit(v, s.n-1-i, 1)
		}
	}
	return v
}

func refSlice(s String, lo, hi int) String {
	out := refNew(hi - lo)
	for i := lo; i < hi; i++ {
		if s.Bit(i) == 1 {
			out.SetBit(i-lo, 1)
		}
	}
	return out
}

func refConcat(s, t String) String {
	out := refNew(s.n + t.n)
	for i := 0; i < s.n; i++ {
		if s.Bit(i) == 1 {
			out.SetBit(i, 1)
		}
	}
	for i := 0; i < t.n; i++ {
		if t.Bit(i) == 1 {
			out.SetBit(s.n+i, 1)
		}
	}
	return out
}

func refFillTo(s String, width int, b byte) String {
	out := refNew(width)
	for i := 0; i < width; i++ {
		if (i < s.n && s.Bit(i) == 1) || (i >= s.n && b == 1) {
			out.SetBit(i, 1)
		}
	}
	return out
}

func refEqual(s, t String) bool {
	if s.n != t.n {
		return false
	}
	for i := 0; i < s.n; i++ {
		if s.Bit(i) != t.Bit(i) {
			return false
		}
	}
	return true
}

func refHasPrefix(s, p String) bool {
	if p.n > s.n {
		return false
	}
	for i := 0; i < p.n; i++ {
		if s.Bit(i) != p.Bit(i) {
			return false
		}
	}
	return true
}

func refCompare(s, t String) int {
	for i := 0; i < s.n; i++ {
		a, b := s.Bit(i), t.Bit(i)
		if a != b {
			if a < b {
				return -1
			}
			return 1
		}
	}
	return 0
}

// invariantErr reports a violation of the package invariant: exactly
// ⌈n/8⌉ bytes, padding bits zero.
func invariantErr(s String) error {
	if s.n < 0 || len(s.data) != (s.n+7)/8 {
		return fmt.Errorf("%d bits in %d bytes", s.n, len(s.data))
	}
	for i := s.n; i < 8*len(s.data); i++ {
		if s.data[i/8]>>uint(7-i%8)&1 == 1 {
			return fmt.Errorf("padding bit %d of a %d-bit string is set", i, s.n)
		}
	}
	return nil
}

// checked asserts the invariant on a constructor's result and passes the
// result through, so a test can wrap every construction it performs.
func checked(t testing.TB, op string, s String, err error) String {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", op, err)
	}
	if err := invariantErr(s); err != nil {
		t.Fatalf("%s broke the invariant: %v", op, err)
	}
	return s
}

// same asserts that a kernel's result is the oracle's, bit for bit and byte
// for byte.
func same(t testing.TB, op string, got, want String) {
	t.Helper()
	if got.n != want.n {
		t.Fatalf("%s: %d bits, reference has %d", op, got.n, want.n)
	}
	for i := 0; i < got.n; i++ {
		if got.Bit(i) != want.Bit(i) {
			t.Fatalf("%s: bit %d of %d is %d, reference has %d", op, i, got.n, got.Bit(i), want.Bit(i))
		}
	}
	if string(got.data) != string(want.data) {
		t.Fatalf("%s: equal bits but different bytes (padding): %x vs %x", op, got.data[len(got.data)-1], want.data[len(want.data)-1])
	}
}
