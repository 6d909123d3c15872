package rs

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
)

// TestDecodeGoldenCachedMatrix pins, per (n, k), the exact cached decode
// plan built for one deterministic erasure pattern: the digest covers the
// missing-column list and every nibble-table byte of the expanded Lagrange
// matrix. Any drift in the barycentric math, the evaluation points, or the
// MulTable layout fails here before it can silently change decode results.
// The pattern keeps the last k shares (all parity plus the tail of the data
// range), the worst case for the number of interpolated columns.
func TestDecodeGoldenCachedMatrix(t *testing.T) {
	cases := []struct {
		n, k int
		want string // SHA-256 over missing indices and plan table bytes
	}{
		{n: 4, k: 2, want: "0f7161ca34b892cbfa2e8a97f888fb43b9edb582d378e275ece1698829ec3b16"},
		{n: 7, k: 5, want: "1c3a6e4d315789a8eb0f7dd75d84c225a788599261e012af710d0d3482cf4bc0"},
		{n: 31, k: 21, want: "f650a66360b17dcdc526104021de9a7c7f3c1ffc67437502795f692f32889f29"},
		{n: 64, k: 43, want: "c3e53fd3456d0b720fca369c9ec1a6867d19bdc471bf3dfdc4b20a82bdf74008"},
		{n: 256, k: 171, want: "f36d7593b5c06b2bacac433dc6fdb9388b7f017cbdc6bf82b65e50b875b29ed5"},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("n%d_k%d", tc.n, tc.k), func(t *testing.T) {
			c, err := NewCodec(tc.n, tc.k)
			if err != nil {
				t.Fatal(err)
			}
			payload := goldenPayload(1024, int64(tc.n))
			shares, err := c.Encode(payload)
			if err != nil {
				t.Fatal(err)
			}
			s := new(Scratch)
			chosen, err := c.selectShares(s, shares[tc.n-tc.k:])
			if err != nil {
				t.Fatal(err)
			}
			plan := c.planFor(s, chosen)
			if len(plan.missing)*tc.k*128 != len(plan.tabs)*128 {
				t.Fatalf("plan shape: %d missing, %d tables", len(plan.missing), len(plan.tabs))
			}
			h := sha256.New()
			for _, m := range plan.missing {
				h.Write([]byte{byte(m >> 8), byte(m)})
			}
			for i := range plan.tabs {
				h.Write(plan.tabs[i][:])
			}
			got := hex.EncodeToString(h.Sum(nil))
			if got != tc.want {
				t.Errorf("cached decode matrix drifted:\n got %s\nwant %s", got, tc.want)
			}
			// The plan must decode: full round trip through the word engine.
			dec, err := c.decode(nil, nil, shares[tc.n-tc.k:], true)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(dec, payload) {
				t.Error("cached-matrix decode does not round-trip")
			}
		})
	}
}

// goldenPayload draws a deterministic payload; math/rand's generator is
// frozen by the Go 1 compatibility promise, so these bytes never change.
func goldenPayload(n int, seed int64) []byte {
	p := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(p)
	return p
}

// TestEncodeGolden pins the exact output bytes of Encode across codec
// parameters and payload sizes. The digests below were recorded from the
// seed element-at-a-time codec; any kernel or layout change that alters a
// single output byte fails here. This is the "no behavioral drift" guard
// for the paper's cost measures: share bytes feed the Merkle commitments
// and the BITS accounting of every experiment.
func TestEncodeGolden(t *testing.T) {
	cases := []struct {
		n, k       int
		payloadLen int
		seed       int64
		want       string // SHA-256 over all share Data, in index order
	}{
		{n: 4, k: 2, payloadLen: 0, seed: 1, want: "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc"},
		{n: 4, k: 2, payloadLen: 1, seed: 2, want: "958d55a129fac54685023fefff8fc36fce5bbc2367680e7ba3e80df1a6485438"},
		{n: 7, k: 5, payloadLen: 317, seed: 3, want: "b16525580daf7bcfb999cff2bc5eb25c387cccedbd62b94efabe5c8c47849a94"},
		{n: 31, k: 21, payloadLen: 4096, seed: 4, want: "678a5664b0f4f07b2732f35f4be704bdce6849f6e85b6e02c046becba165d9e1"},
		{n: 64, k: 43, payloadLen: 65536, seed: 5, want: "eafee32f9709466d2b3bbd29a7f488e90745d99776376afdf406ecdae7047b89"},
		{n: 256, k: 171, payloadLen: 65536, seed: 6, want: "cc9ffc74ddddc4bff044407297dc493b02e2777d113457c844bf749c3da67ba6"},
		{n: 5, k: 5, payloadLen: 100, seed: 7, want: "ac844ce642663392381d1072b2cba8670e0ab6d14ef5a26da5426a642f019ad8"}, // n == k: no parity
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("n%d_k%d_len%d", tc.n, tc.k, tc.payloadLen), func(t *testing.T) {
			c, err := NewCodec(tc.n, tc.k)
			if err != nil {
				t.Fatal(err)
			}
			payload := goldenPayload(tc.payloadLen, tc.seed)
			shares, err := c.Encode(payload)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			for i, sh := range shares {
				if sh.Index != i {
					t.Fatalf("share %d has index %d", i, sh.Index)
				}
				if len(sh.Data) != c.ShareSize(tc.payloadLen) {
					t.Fatalf("share %d has %d bytes, want %d", i, len(sh.Data), c.ShareSize(tc.payloadLen))
				}
				h.Write(sh.Data)
			}
			got := hex.EncodeToString(h.Sum(nil))
			if got != tc.want {
				t.Errorf("share digest drifted:\n got %s\nwant %s", got, tc.want)
			}
			// Round-trip through both decode paths while we are here.
			dec, err := c.Decode(shares[:c.k])
			if err != nil {
				t.Fatal(err)
			}
			if string(dec) != string(payload) {
				t.Error("systematic decode mismatch")
			}
			if c.n > c.k {
				dec, err = c.Decode(shares[c.n-c.k:])
				if err != nil {
					t.Fatal(err)
				}
				if string(dec) != string(payload) {
					t.Error("interpolated decode mismatch")
				}
			}
		})
	}
}
