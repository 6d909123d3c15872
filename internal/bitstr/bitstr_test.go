package bitstr

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFromBigRoundTrip(t *testing.T) {
	cases := []struct {
		v     int64
		width int
		text  string
	}{
		{0, 0, ""},
		{0, 1, "0"},
		{1, 1, "1"},
		{1, 4, "0001"},
		{5, 3, "101"},
		{5, 8, "00000101"},
		{255, 8, "11111111"},
		{256, 9, "100000000"},
		{1023, 12, "001111111111"},
	}
	for _, tc := range cases {
		s, err := FromBig(big.NewInt(tc.v), tc.width)
		if err != nil {
			t.Fatalf("FromBig(%d, %d): %v", tc.v, tc.width, err)
		}
		if got := s.String(); got != tc.text {
			t.Errorf("FromBig(%d, %d) = %q, want %q", tc.v, tc.width, got, tc.text)
		}
		if got := s.Big().Int64(); got != tc.v {
			t.Errorf("VAL(BITS_%d(%d)) = %d, want %d", tc.width, tc.v, got, tc.v)
		}
		if s.Len() != tc.width {
			t.Errorf("len = %d, want %d", s.Len(), tc.width)
		}
	}
}

func TestFromBigErrors(t *testing.T) {
	if _, err := FromBig(big.NewInt(-1), 8); err == nil {
		t.Error("negative value accepted")
	}
	if _, err := FromBig(big.NewInt(256), 8); err == nil {
		t.Error("overflowing value accepted")
	}
	if _, err := FromBig(big.NewInt(1), -1); err == nil {
		t.Error("negative width accepted")
	}
}

func TestValBitsIdentityProperty(t *testing.T) {
	f := func(raw []byte, extra uint8) bool {
		v := new(big.Int).SetBytes(raw)
		width := v.BitLen() + int(extra%32)
		s, err := FromBig(v, width)
		if err != nil {
			return false
		}
		return s.Big().Cmp(v) == 0 && s.Len() == width
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestParseAndBits(t *testing.T) {
	s := MustParse("1011001")
	wantBits := []byte{1, 0, 1, 1, 0, 0, 1}
	for i, w := range wantBits {
		if got := s.Bit(i); got != w {
			t.Errorf("bit %d = %d, want %d", i, got, w)
		}
	}
	if s.Big().Int64() != 89 {
		t.Errorf("VAL(1011001) = %d, want 89", s.Big().Int64())
	}
	if _, err := Parse("01x"); err == nil {
		t.Error("invalid character accepted")
	}
	if _, err := FromBits([]byte{0, 1, 2}); err == nil {
		t.Error("non-binary bit accepted")
	}
}

func TestSliceConcat(t *testing.T) {
	s := MustParse("110100101011")
	mid, err := s.Slice(3, 9)
	if err != nil {
		t.Fatal(err)
	}
	if mid.String() != "100101" {
		t.Errorf("slice = %q, want 100101", mid.String())
	}
	left, _ := s.Slice(0, 3)
	right, _ := s.Slice(9, 12)
	if got := left.Concat(mid).Concat(right); !got.Equal(s) {
		t.Errorf("concat of slices = %q, want %q", got.String(), s.String())
	}
	if _, err := s.Slice(5, 3); err == nil {
		t.Error("reversed range accepted")
	}
	if _, err := s.Slice(0, 13); err == nil {
		t.Error("overlong range accepted")
	}
}

func TestConcatUnaligned(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		a := randomString(rng, rng.Intn(40))
		b := randomString(rng, rng.Intn(40))
		got := a.Concat(b)
		if got.String() != a.String()+b.String() {
			t.Fatalf("concat(%q, %q) = %q", a.String(), b.String(), got.String())
		}
	}
}

func TestMinMaxFill(t *testing.T) {
	s := MustParse("101")
	minV, err := s.MinFill(6)
	if err != nil {
		t.Fatal(err)
	}
	if minV.Int64() != 0b101000 {
		t.Errorf("MIN_6(101) = %d, want %d", minV.Int64(), 0b101000)
	}
	maxV, err := s.MaxFill(6)
	if err != nil {
		t.Fatal(err)
	}
	if maxV.Int64() != 0b101111 {
		t.Errorf("MAX_6(101) = %d, want %d", maxV.Int64(), 0b101111)
	}
	// Width equal to length: both fills are the value itself.
	same, _ := s.MinFill(3)
	if same.Int64() != 5 {
		t.Errorf("MIN_3(101) = %d, want 5", same.Int64())
	}
	if _, err := s.MaxFill(2); err == nil {
		t.Error("width below length accepted")
	}
}

// TestRemark1 exercises Remark 1 of the paper: for v ≤ v' < 2^ℓ with longest
// common prefix P shorter than ℓ, both MAX_ℓ(P||0) and MIN_ℓ(P||1) lie in
// [v, v'].
func TestRemark1(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const width = 24
	for trial := 0; trial < 500; trial++ {
		a := big.NewInt(int64(rng.Intn(1 << width)))
		b := big.NewInt(int64(rng.Intn(1 << width)))
		if a.Cmp(b) > 0 {
			a, b = b, a
		}
		sa := MustFromBig(a, width)
		sb := MustFromBig(b, width)
		k := 0
		for k < width && sa.Bit(k) == sb.Bit(k) {
			k++
		}
		if k == width {
			continue // identical values, no strict common-prefix split
		}
		p, _ := sa.Prefix(k)
		p0, _ := p.AppendBit(0)
		p1, _ := p.AppendBit(1)
		lo, _ := p0.MaxFill(width)
		hi, _ := p1.MinFill(width)
		if lo.Cmp(a) < 0 || lo.Cmp(b) > 0 {
			t.Fatalf("MAX(P||0)=%v outside [%v,%v]", lo, a, b)
		}
		if hi.Cmp(a) < 0 || hi.Cmp(b) > 0 {
			t.Fatalf("MIN(P||1)=%v outside [%v,%v]", hi, a, b)
		}
		// And the adjacency fact used in the proof: MAX(P||0)+1 == MIN(P||1).
		if new(big.Int).Add(lo, big.NewInt(1)).Cmp(hi) != 0 {
			t.Fatalf("MAX(P||0)+1 != MIN(P||1): %v, %v", lo, hi)
		}
	}
}

func TestHasPrefixCompare(t *testing.T) {
	s := MustParse("110010")
	if !s.HasPrefix(MustParse("1100")) {
		t.Error("1100 should be a prefix of 110010")
	}
	if s.HasPrefix(MustParse("1101")) {
		t.Error("1101 is not a prefix of 110010")
	}
	if s.HasPrefix(MustParse("1100101")) {
		t.Error("longer string cannot be a prefix")
	}
	if !s.HasPrefix(String{}) {
		t.Error("empty string is a prefix of everything")
	}
	if c := MustParse("0110").Compare(MustParse("1001")); c != -1 {
		t.Errorf("compare = %d, want -1", c)
	}
	if c := MustParse("1001").Compare(MustParse("1001")); c != 0 {
		t.Errorf("compare = %d, want 0", c)
	}
	if c := MustParse("1010").Compare(MustParse("1001")); c != 1 {
		t.Errorf("compare = %d, want 1", c)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		s := randomString(rng, rng.Intn(70))
		raw := s.Marshal()
		if want := 4 + (s.Len()+7)/8; len(raw) != want {
			t.Fatalf("encoded size %d, want %d", len(raw), want)
		}
		got, err := Unmarshal(raw)
		if err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if !got.Equal(s) {
			t.Fatalf("round trip: got %q want %q", got.String(), s.String())
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{0x00},
		{0, 0, 0, 9},             // claims 9 bits, no body
		{0, 0, 0, 9, 0xff, 0xff}, // 9 bits but padding bit set
		{0, 0, 0, 3, 0xff},       // padding bits set
		{0xff, 0xff, 0xff, 0xff}, // negative length
	}
	for i, raw := range cases {
		if _, err := Unmarshal(raw); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
	// A valid zero-padding case must still pass.
	s := MustParse("101")
	if _, err := Unmarshal(s.Marshal()); err != nil {
		t.Errorf("valid encoding rejected: %v", err)
	}
}

// TestBlocks is Section 4's block decomposition as its callers cut it: block
// i of a string split into blocks of size bits is Slice(i·size, (i+1)·size),
// and blocks [lo, hi) together are one Slice.
func TestBlocks(t *testing.T) {
	s := MustParse("110100101011")
	const size = 3
	want := []string{"110", "100", "101", "011"}
	for i, w := range want {
		blk, err := s.Slice(i*size, (i+1)*size)
		if err != nil {
			t.Fatal(err)
		}
		if blk.String() != w {
			t.Errorf("block %d = %q, want %q", i, blk.String(), w)
		}
	}
	rng, err := s.Slice(1*size, 3*size)
	if err != nil {
		t.Fatal(err)
	}
	if rng.String() != "100101" {
		t.Errorf("blocks [1, 3) = %q, want 100101", rng.String())
	}
	if _, err := s.Slice(3*size, 5*size); err == nil {
		t.Error("a block past the end accepted")
	}
}

func TestNatBitLen(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{{0, 1}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {255, 8}, {256, 9}}
	for _, tc := range cases {
		if got := NatBitLen(big.NewInt(tc.v)); got != tc.want {
			t.Errorf("NatBitLen(%d) = %d, want %d", tc.v, got, tc.want)
		}
	}
}

func TestAppendBit(t *testing.T) {
	s := MustParse("10")
	s1, err := s.AppendBit(1)
	if err != nil {
		t.Fatal(err)
	}
	if s1.String() != "101" {
		t.Errorf("append = %q", s1.String())
	}
	if _, err := s.AppendBit(2); err == nil {
		t.Error("non-binary bit accepted")
	}
}

func randomString(rng *rand.Rand, n int) String {
	bits := make([]byte, n)
	for i := range bits {
		bits[i] = byte(rng.Intn(2))
	}
	s, err := FromBits(bits)
	if err != nil {
		panic(err)
	}
	return s
}
