package rs

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewCodecParams(t *testing.T) {
	for _, bad := range [][2]int{{0, 0}, {3, 0}, {2, 3}, {70000, 5}, {-1, -1}} {
		if _, err := NewCodec(bad[0], bad[1]); err == nil {
			t.Errorf("NewCodec(%d,%d) accepted", bad[0], bad[1])
		}
	}
	c, err := NewCodec(7, 5)
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != 7 || c.K() != 5 {
		t.Errorf("N,K = %d,%d", c.N(), c.K())
	}
}

func TestRoundTripAllSubsets(t *testing.T) {
	// Small code: verify reconstruction from EVERY k-subset of shares.
	c, err := NewCodec(6, 4)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("convex agreement payload 0123456789")
	shares, err := c.Encode(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(shares) != 6 {
		t.Fatalf("got %d shares", len(shares))
	}
	for a := 0; a < 6; a++ {
		for b := a + 1; b < 6; b++ {
			for cc := b + 1; cc < 6; cc++ {
				for d := cc + 1; d < 6; d++ {
					sub := []Share{shares[a], shares[b], shares[cc], shares[d]}
					got, err := c.Decode(sub)
					if err != nil {
						t.Fatalf("decode {%d,%d,%d,%d}: %v", a, b, cc, d, err)
					}
					if !bytes.Equal(got, payload) {
						t.Fatalf("decode {%d,%d,%d,%d}: wrong payload", a, b, cc, d)
					}
				}
			}
		}
	}
}

func TestRoundTripRandomErasures(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(30)
		k := 1 + rng.Intn(n)
		c, err := NewCodec(n, k)
		if err != nil {
			t.Fatal(err)
		}
		payload := make([]byte, rng.Intn(4000))
		rng.Read(payload)
		shares, err := c.Encode(payload)
		if err != nil {
			t.Fatal(err)
		}
		for i, sh := range shares {
			if sh.Index != i {
				t.Fatalf("share %d has index %d", i, sh.Index)
			}
			if len(sh.Data) != c.ShareSize(len(payload)) {
				t.Fatalf("share size %d, want %d", len(sh.Data), c.ShareSize(len(payload)))
			}
		}
		// Keep a random k-subset.
		perm := rng.Perm(n)[:k]
		sub := make([]Share, 0, k)
		for _, i := range perm {
			sub = append(sub, shares[i])
		}
		got, err := c.Decode(sub)
		if err != nil {
			t.Fatalf("n=%d k=%d: %v", n, k, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("n=%d k=%d: wrong payload", n, k)
		}
	}
}

func TestSystematicShares(t *testing.T) {
	// The first k shares carry the framed payload verbatim: decoding from
	// exactly shares 0..k−1 must hit the fast path and still match the
	// general interpolation path.
	c, _ := NewCodec(9, 5)
	payload := []byte("systematic check: the quick brown fox")
	shares, _ := c.Encode(payload)

	sysGot, err := c.Decode(shares[:5])
	if err != nil {
		t.Fatal(err)
	}
	genGot, err := c.Decode(shares[4:]) // indices 4..8, forces interpolation
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sysGot, payload) || !bytes.Equal(genGot, payload) {
		t.Fatal("systematic and general paths disagree with payload")
	}
}

func TestDecodeRejectsMalformedShares(t *testing.T) {
	c, _ := NewCodec(5, 3)
	payload := []byte("abcdef")
	shares, _ := c.Encode(payload)

	if _, err := c.Decode(shares[:2]); err == nil {
		t.Error("too few shares accepted")
	}
	dup := []Share{shares[0], shares[0], shares[1]}
	if _, err := c.Decode(dup); err == nil {
		t.Error("duplicate index accepted")
	}
	bad := []Share{shares[0], shares[1], {Index: 9, Data: shares[2].Data}}
	if _, err := c.Decode(bad); err == nil {
		t.Error("out-of-range index accepted")
	}
	odd := []Share{shares[0], shares[1], {Index: 2, Data: []byte{1, 2, 3}}}
	if _, err := c.Decode(odd); err == nil {
		t.Error("odd-length share accepted")
	}
	mixed := []Share{shares[0], shares[1], {Index: 2, Data: make([]byte, len(shares[2].Data)+2)}}
	if _, err := c.Decode(mixed); err == nil {
		t.Error("length mismatch accepted")
	}
	empty := []Share{shares[0], shares[1], {Index: 2, Data: nil}}
	if _, err := c.Decode(empty); err == nil {
		t.Error("empty share accepted")
	}
}

func TestDecodeRejectsGarbageFrame(t *testing.T) {
	// Shares whose symbols decode to an impossible length header must be
	// rejected, not crash.
	c, _ := NewCodec(4, 2)
	garbage := []Share{
		{Index: 0, Data: []byte{0xff, 0xff}},
		{Index: 1, Data: []byte{0xff, 0xff}},
	}
	if _, err := c.Decode(garbage); err == nil {
		t.Error("impossible frame accepted")
	}
}

func TestEmptyAndTinyPayloads(t *testing.T) {
	c, _ := NewCodec(7, 4)
	for _, payload := range [][]byte{nil, {}, {0}, {1, 2, 3}} {
		shares, err := c.Encode(payload)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Decode(shares[3:])
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(payload) || (len(payload) > 0 && !bytes.Equal(got, payload)) {
			t.Fatalf("payload %v round-tripped to %v", payload, got)
		}
	}
}

func TestNEqualsKCode(t *testing.T) {
	// Degenerate (k = n) code: no redundancy, all shares required.
	c, err := NewCodec(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("no redundancy at all")
	shares, _ := c.Encode(payload)
	got, err := c.Decode(shares)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("round trip failed")
	}
}

func TestShareSizeIsNearOptimal(t *testing.T) {
	// Shares must be O(ℓ/k): within one stripe of payload/k.
	c, _ := NewCodec(31, 21)
	payloadLen := 100000
	size := c.ShareSize(payloadLen)
	lower := payloadLen / 21
	if size < lower || size > lower+64 {
		t.Errorf("share size %d not within [%d, %d]", size, lower, lower+64)
	}
}

func TestRoundTripProperty(t *testing.T) {
	c, _ := NewCodec(10, 7)
	f := func(payload []byte, seed int64) bool {
		shares, err := c.Encode(payload)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		perm := rng.Perm(10)[:7]
		sub := make([]Share, 0, 7)
		for _, i := range perm {
			sub = append(sub, shares[i])
		}
		got, err := c.Decode(sub)
		if err != nil {
			return false
		}
		return bytes.Equal(got, payload) || (len(payload) == 0 && len(got) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestEncodeToReusesBuffer: encoding payloads of falling sizes into one
// dirty buffer yields Encode's shares, carved from that buffer; a buffer
// too small for the shares is not written.
func TestEncodeToReusesBuffer(t *testing.T) {
	c, err := NewCodec(7, 5)
	if err != nil {
		t.Fatal(err)
	}
	buf := bytes.Repeat([]byte{0xA5}, 7*c.ShareSize(4096))
	for _, plen := range []int{4096, 1000, 3, 0} {
		payload := goldenPayload(plen, int64(plen))
		got, err := c.EncodeTo(buf, payload)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := c.Encode(payload)
		for i := range want {
			if !bytes.Equal(got[i].Data, want[i].Data) || &got[i].Data[:1][0] != &buf[i*c.ShareSize(plen)] {
				t.Fatalf("len %d: share %d differs from Encode's or is not carved from the buffer", plen, i)
			}
		}
	}
	small := bytes.Repeat([]byte{0xA5}, 8)
	if _, err := c.EncodeTo(small, goldenPayload(100, 1)); err != nil || !bytes.Equal(small, bytes.Repeat([]byte{0xA5}, 8)) {
		t.Fatalf("a too-small buffer was written: %x, %v", small, err)
	}
}
