package rs

import (
	"bytes"
	"math/bits"
	"testing"
)

// FuzzDecode feeds arbitrary share data into the decoder: it must never
// panic and must either error or return some payload.
func FuzzDecode(f *testing.F) {
	c, err := NewCodec(5, 3)
	if err != nil {
		f.Fatal(err)
	}
	good, _ := c.Encode([]byte("seed payload"))
	f.Add(int(0), good[0].Data, int(1), good[1].Data, int(2), good[2].Data)
	f.Add(int(0), []byte{1, 2}, int(1), []byte{3}, int(9), []byte{})
	f.Fuzz(func(t *testing.T, i0 int, d0 []byte, i1 int, d1 []byte, i2 int, d2 []byte) {
		shares := []Share{{Index: i0, Data: d0}, {Index: i1, Data: d1}, {Index: i2, Data: d2}}
		_, _ = c.Decode(shares)
	})
}

// FuzzDecodeCachedVsReference pins the cached-plan word engine
// byte-identical to the reference interpolation on fuzzer-chosen payloads
// and erasure patterns. Each pattern is decoded twice so both the
// plan-build (miss) and plan-reuse (hit) paths are compared.
func FuzzDecodeCachedVsReference(f *testing.F) {
	const n, k = 13, 8
	c, err := NewCodec(n, k)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte("seed payload for the differential fuzz"), uint16(0b1010101010101))
	f.Add([]byte{}, uint16(0xFF))
	f.Add([]byte{1}, uint16(0xFFFF))
	f.Fuzz(func(t *testing.T, payload []byte, mask uint16) {
		if len(payload) > 1<<16 {
			return
		}
		shares, err := c.Encode(payload)
		if err != nil {
			t.Fatal(err)
		}
		// Keep the shares whose mask bit is set, topping up from index 0 if
		// the fuzzer set fewer than k bits.
		if bits.OnesCount16(mask) < k {
			mask |= 1<<k - 1
		}
		sel := make([]Share, 0, n)
		for i := 0; i < n && len(sel) < k; i++ {
			if mask&(1<<i) != 0 {
				sel = append(sel, shares[i])
			}
		}
		for pass := 0; pass < 2; pass++ {
			gotW, errW := c.decode(nil, nil, sel, true)
			gotR, errR := c.decode(nil, nil, sel, false)
			if (errW == nil) != (errR == nil) {
				t.Fatalf("mask=%#x: word err %v, reference err %v", mask, errW, errR)
			}
			if !bytes.Equal(gotW, gotR) {
				t.Fatalf("mask=%#x pass=%d: cached decode diverges from reference", mask, pass)
			}
			if errW == nil && !bytes.Equal(gotW, payload) {
				t.Fatalf("mask=%#x: decode does not round-trip", mask)
			}
		}
	})
}

// FuzzEncodeDecode: any payload round-trips through any 3 of 5 shares.
func FuzzEncodeDecode(f *testing.F) {
	c, err := NewCodec(5, 3)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte("hello world"), uint8(0))
	f.Add([]byte{}, uint8(7))
	f.Fuzz(func(t *testing.T, payload []byte, pick uint8) {
		if len(payload) > 1<<16 {
			return
		}
		shares, err := c.Encode(payload)
		if err != nil {
			t.Fatal(err)
		}
		// Choose a 3-subset deterministically from pick.
		subsets := [][3]int{{0, 1, 2}, {0, 1, 3}, {0, 1, 4}, {0, 2, 3}, {0, 2, 4},
			{0, 3, 4}, {1, 2, 3}, {1, 2, 4}, {1, 3, 4}, {2, 3, 4}}
		sel := subsets[int(pick)%len(subsets)]
		got, err := c.Decode([]Share{shares[sel[0]], shares[sel[1]], shares[sel[2]]})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("round trip failed for %d bytes via %v", len(payload), sel)
		}
	})
}
