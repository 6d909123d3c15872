package bitstr

import (
	"bytes"
	"errors"
	"math/big"
	"math/rand"
	"testing"
)

// FuzzUnmarshal: arbitrary bytes either fail cleanly or decode to a string
// whose re-encoding is byte-identical (canonical form).
func FuzzUnmarshal(f *testing.F) {
	f.Add([]byte{})
	f.Add(MustParse("10110").Marshal())
	f.Add([]byte{0, 0, 0, 9, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, raw []byte) {
		s, err := Unmarshal(raw)
		if err != nil {
			return
		}
		if !bytes.Equal(s.Marshal(), raw) {
			t.Fatalf("non-canonical decode: %q from %v", s.String(), raw)
		}
		// Exercise the algebra on whatever decoded.
		if s.Len() > 0 {
			half, err := s.Prefix(s.Len() / 2)
			if err != nil {
				t.Fatal(err)
			}
			if !s.HasPrefix(half) {
				t.Fatal("prefix not a prefix")
			}
			min, err := half.MinFill(s.Len())
			if err != nil {
				t.Fatal(err)
			}
			max, err := half.MaxFill(s.Len())
			if err != nil {
				t.Fatal(err)
			}
			if min.Cmp(max) > 0 {
				t.Fatalf("MIN %v > MAX %v", min, max)
			}
		}
	})
}

// FuzzKernelsVsReference holds every word/byte kernel to its bit-at-a-time
// oracle (reference_test.go) and to the padding invariant. The operand is
// the first n bits of raw; lo, hi, width are reduced into range, so every
// input is a valid case. The seeds pin the lengths around byte and word
// boundaries, unaligned cuts, and hi = n.
func FuzzKernelsVsReference(f *testing.F) {
	big64k := make([]byte, (1<<16+3+7)/8)
	rand.New(rand.NewSource(13)).Read(big64k)
	for _, n := range []uint32{0, 1, 7, 8, 9, 63, 64, 65, 1<<16 + 3} {
		f.Add(big64k, n, uint32(0), n, uint32(0), false)       // whole string, hi = n
		f.Add(big64k, n, n/3+1, n, uint32(5), true)            // unaligned lo, hi = n
		f.Add(big64k, n, uint32(8), n/2, uint32(64), true)     // aligned lo
		f.Add(big64k, n, n/4+1, 3*(n/4), uint32(129), false)   // unaligned both ends
		f.Add(big64k[1:], n, uint32(3), uint32(3), n%9, false) // empty slice
	}
	// Widths around word boundaries but off them, for FromBig's word writes.
	for _, n := range []uint32{127, 128, 129, 191, 1000} {
		f.Add(big64k, n, n/2+1, n, uint32(1), true)
		f.Add(big64k, n, uint32(0), n/2, uint32(63), false)
	}
	f.Add([]byte{0xFF}, uint32(8), uint32(1), uint32(8), uint32(1), true)
	f.Fuzz(func(t *testing.T, raw []byte, n, lo, hi, width uint32, fill bool) {
		checkKernels(t, raw, n, lo, hi, width, fill)
	})
}

func checkKernels(t *testing.T, raw []byte, un, ulo, uhi, uwidth uint32, fill bool) {
	n := int(un % uint32(8*len(raw)+1))
	lo, hi := int(ulo%uint32(n+1)), int(uhi%uint32(n+1))
	if lo > hi {
		lo, hi = hi, lo
	}
	width := n + int(uwidth%131)
	fillBit := byte(0)
	if fill {
		fillBit = 1
	}
	s := refFromBytes(raw, n)
	if err := invariantErr(s); err != nil {
		t.Fatal(err)
	}

	// Slice / Prefix, then Concat puts the pieces back.
	mid, err := s.Slice(lo, hi)
	same(t, "Slice", checked(t, "Slice", mid, err), refSlice(s, lo, hi))
	dirty := []byte{0xDE, 0xAD}
	if wire, err := s.AppendMarshalRange(dirty[:1], lo, hi); err != nil || !bytes.Equal(wire, append([]byte{0xDE}, refSlice(s, lo, hi).Marshal()...)) {
		t.Fatalf("AppendMarshalRange(%d, %d) = (%x, %v), want Marshal of the slice after the first byte", lo, hi, wire, err)
	}
	head, err := s.Prefix(lo)
	same(t, "Prefix", checked(t, "Prefix", head, err), refSlice(s, 0, lo))
	tail, err := s.Slice(lo, n)
	same(t, "Slice to n", checked(t, "Slice to n", tail, err), refSlice(s, lo, n))
	same(t, "Concat", checked(t, "Concat", head.Concat(tail), nil), s)
	same(t, "Concat unaligned", checked(t, "Concat unaligned", mid.Concat(s), nil), refConcat(mid, s))

	// Compare / Equal against a copy, and against a string that differs in
	// one bit as late as hi−1.
	if c := s.Compare(refSlice(s, 0, n)); c != 0 || !s.Equal(refSlice(s, 0, n)) {
		t.Fatalf("string differs from its copy: Compare %d", c)
	}
	if hi > 0 {
		flipped := refSlice(s, 0, n)
		flipped.data[(hi-1)/8] ^= 0x80 >> uint((hi-1)%8)
		if got, want := s.Compare(flipped), refCompare(s, flipped); got != want || got == 0 {
			t.Fatalf("Compare with bit %d flipped = %d, reference %d", hi-1, got, want)
		}
		if got, want := flipped.Compare(s), refCompare(flipped, s); got != want {
			t.Fatalf("reversed Compare = %d, reference %d", got, want)
		}
		if s.Equal(flipped) {
			t.Fatal("Equal on strings one bit apart")
		}
		fhead := refSlice(flipped, 0, hi)
		if got, want := s.HasPrefix(fhead), refHasPrefix(s, fhead); got != want || got {
			t.Fatalf("HasPrefix of a non-prefix = %v, reference %v", got, want)
		}
	}
	if s.Equal(tail) != refEqual(s, tail) {
		t.Fatal("Equal disagrees with the reference across lengths")
	}
	if got, want := s.HasPrefix(head), refHasPrefix(s, head); got != want || !got {
		t.Fatalf("HasPrefix(Prefix(%d)) = %v, reference %v", lo, got, want)
	}
	if got, want := s.HasPrefix(mid), refHasPrefix(s, mid); got != want {
		t.Fatalf("HasPrefix(Slice(%d,%d)) = %v, reference %v", lo, hi, got, want)
	}
	if got, want := head.HasPrefix(s), refHasPrefix(head, s); got != want {
		t.Fatalf("HasPrefix of a longer string = %v, reference %v", got, want)
	}

	// FillTo / AppendBit / MIN_ℓ / MAX_ℓ.
	filled, err := mid.FillTo(width-n+mid.Len(), fillBit)
	same(t, "FillTo", checked(t, "FillTo", filled, err), refFillTo(mid, width-n+mid.Len(), fillBit))
	one, err := mid.AppendBit(fillBit)
	same(t, "AppendBit", checked(t, "AppendBit", one, err), refFillTo(mid, mid.Len()+1, fillBit))
	fillV, err := head.MinFill(width)
	if fill {
		fillV, err = head.MaxFill(width)
	}
	if err != nil {
		t.Fatal(err)
	}
	if want := refBig(refFillTo(head, width, fillBit)); fillV.Cmp(want) != 0 {
		t.Fatalf("MIN/MAX fill(%v) of %d bits to %d: got %v want %v", fill, lo, width, fillV, want)
	}

	// VAL and BITS_ℓ are inverse, and each is its reference.
	v := s.Big()
	if want := refBig(s); v.Cmp(want) != 0 {
		t.Fatalf("Big: got %v want %v", v, want)
	}
	back, err := FromBig(v, n)
	same(t, "FromBig(Big)", checked(t, "FromBig", back, err), s)
	wide, err := FromBig(v, width)
	same(t, "FromBig wide", checked(t, "FromBig wide", wide, err), refFromBig(v, width))
	if n > 0 && v.BitLen() == n {
		if _, err := FromBig(v, n-1); !errors.Is(err, ErrOverflow) {
			t.Fatalf("FromBig into %d bits of a %d-bit value: %v", n-1, n, err)
		}
	}

	// The wire form round-trips and is canonical.
	dec, err := Unmarshal(mid.Marshal())
	same(t, "Unmarshal(Marshal)", checked(t, "Unmarshal", dec, err), mid)

	// The writers into owned storage, each over a buffer of stale bytes:
	// FromBigTo and CopyTo build what FromBig and a copy build; SetRange
	// writes a range and leaves the bits around it; Fill is FillTo from lo;
	// CompareHead compares heads without cutting them.
	stale := func(size int) []byte { return bytes.Repeat([]byte{0xDB}, size+3) }
	buf := stale((width + 7) / 8)
	owned, err := FromBigTo(&buf, v, width)
	same(t, "FromBigTo", checked(t, "FromBigTo", owned, err), refFromBig(v, width))
	buf = stale((width + 7) / 8)
	owned, err = FromNatTo(&buf, append([]byte{0, 0}, v.Bytes()...), width)
	same(t, "FromNatTo", checked(t, "FromNatTo", owned, err), refFromBig(v, width))
	if n > 0 && v.BitLen() == n {
		if _, err := FromNatTo(&buf, v.Bytes(), n-1); !errors.Is(err, ErrOverflow) {
			t.Fatalf("FromNatTo into %d bits of a %d-bit value: %v", n-1, n, err)
		}
	}
	// AppendNat appends VAL of the range, in whole bytes.
	nat, err := s.AppendNat([]byte{0xDB}, lo, hi)
	if err != nil || nat[0] != 0xDB || len(nat)-1 != (hi-lo+7)/8 || new(big.Int).SetBytes(nat[1:]).Cmp(refBig(mid)) != 0 {
		t.Fatalf("AppendNat(%d, %d) of %v = %x, %v; want VAL %v", lo, hi, s, nat, err, refBig(mid))
	}
	buf = stale(len(s.data))
	x := s.CopyTo(&buf)
	same(t, "CopyTo", checked(t, "CopyTo", x, nil), s)
	ones := refFillTo(String{}, hi-lo, 1)
	err = x.SetRange(lo, ones)
	same(t, "SetRange ones", checked(t, "SetRange ones", x, err), refConcat(refConcat(head, ones), refSlice(s, hi, n)))
	err = x.SetRange(lo, mid)
	same(t, "SetRange back", checked(t, "SetRange back", x, err), s)
	if err := x.SetRange(lo, refNew(n-lo+1)); !errors.Is(err, ErrRange) {
		t.Fatalf("SetRange past the end: %v", err)
	}
	err = x.Fill(lo, fillBit)
	same(t, "Fill", checked(t, "Fill", x, err), refFillTo(head, n, fillBit))
	if got, want := s.CompareHead(x, lo), 0; got != want {
		t.Fatalf("CompareHead over the %d bits Fill kept = %d", lo, got)
	}
	if got, want := s.CompareHead(x, n), refCompare(s, x); got != want {
		t.Fatalf("CompareHead(%d) = %d, reference %d", n, got, want)
	}
}

// TestInvariantAfterEveryConstructor runs each constructor of the package
// on operands of every length up to three bytes and checks the padding
// invariant on what it returns.
func TestInvariantAfterEveryConstructor(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 0; n <= 24; n++ {
		s := randomString(rng, n)
		checked(t, "FromBits", s, nil)
		p, err := Parse(s.String())
		same(t, "Parse", checked(t, "Parse", p, err), s)
		b, err := FromBig(s.Big(), n)
		same(t, "FromBig", checked(t, "FromBig", b, err), s)
		u, err := Unmarshal(s.Marshal())
		same(t, "Unmarshal", checked(t, "Unmarshal", u, err), s)
		for lo := 0; lo <= n; lo++ {
			sl, err := s.Slice(lo, n)
			checked(t, "Slice", sl, err)
			pre, err := s.Prefix(lo)
			checked(t, "Prefix", pre, err)
			checked(t, "Concat", pre.Concat(sl), nil)
			for bit := byte(0); bit <= 1; bit++ {
				f, err := pre.FillTo(n, bit)
				checked(t, "FillTo", f, err)
				a, err := pre.AppendBit(bit)
				checked(t, "AppendBit", a, err)
			}
		}
		for _, k := range []int{1, 2, 3, 4, 6} {
			if n%k != 0 {
				continue
			}
			size := n / k
			for i := 0; i < k; i++ {
				blk, err := s.Slice(i*size, (i+1)*size)
				checked(t, "Slice (block)", blk, err)
			}
			br, err := s.Slice(0, (k-1)*size)
			checked(t, "Slice (block range)", br, err)
		}
	}
}
