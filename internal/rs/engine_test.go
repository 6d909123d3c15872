package rs

// Tests for the word-engine decode/encode paths introduced with the cached
// decode-plan architecture: differential checks against the reference
// engine, plan-cache behavior, and the concurrency / determinism contract.

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// erase returns the shares at the given indices.
func erase(shares []Share, keep []int) []Share {
	out := make([]Share, 0, len(keep))
	for _, i := range keep {
		out = append(out, shares[i])
	}
	return out
}

// TestDecodeWordsMatchesReference pins the word engine byte-identical to the
// reference interpolation across codec shapes and erasure patterns,
// including patterns that mix present data columns with parity shares,
// repeat patterns that exercise the plan-cache hit path, and payloads that
// span two chunks of stripes and a tail.
func TestDecodeWordsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, shape := range []struct{ n, k int }{
		{4, 2}, {7, 5}, {13, 8}, {31, 21}, {64, 43},
	} {
		c, err := NewCodec(shape.n, shape.k)
		if err != nil {
			t.Fatal(err)
		}
		for _, plen := range []int{0, 1, 63, 1024, 8192, 2*shape.k*(2*chunkStripes+3) + 1} {
			payload := goldenPayload(plen, int64(plen+shape.n))
			shares, err := c.Encode(payload)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 6; trial++ {
				keep := rng.Perm(shape.n)[:shape.k]
				sel := erase(shares, keep)
				// Decode the same pattern twice: the second call hits the
				// plan cache and must not drift.
				for pass := 0; pass < 2; pass++ {
					gotW, errW := c.decode(nil, nil, sel, true)
					gotR, errR := c.decode(nil, nil, sel, false)
					if (errW == nil) != (errR == nil) {
						t.Fatalf("n=%d k=%d len=%d keep=%v: word err %v, reference err %v",
							shape.n, shape.k, plen, keep, errW, errR)
					}
					if !bytes.Equal(gotW, gotR) || !bytes.Equal(gotW, payload) {
						t.Fatalf("n=%d k=%d len=%d keep=%v pass=%d: engines diverge",
							shape.n, shape.k, plen, keep, pass)
					}
				}
			}
		}
	}
}

// TestEncodeWordsMatchesReference pins the word-engine parity against the
// reference table-kernel parity for every share byte, on payloads within
// one chunk of stripes and across chunks.
func TestEncodeWordsMatchesReference(t *testing.T) {
	for _, shape := range []struct{ n, k int }{
		{4, 2}, {7, 5}, {31, 21}, {64, 43}, {5, 5},
	} {
		c, err := NewCodec(shape.n, shape.k)
		if err != nil {
			t.Fatal(err)
		}
		for _, plen := range []int{0, 1, 100, 4096, 2*shape.k*(2*chunkStripes+3) + 1} {
			payload := goldenPayload(plen, int64(plen+7*shape.n))
			sw, err := c.encode(nil, nil, payload, true)
			if err != nil {
				t.Fatal(err)
			}
			sr, err := c.encode(nil, nil, payload, false)
			if err != nil {
				t.Fatal(err)
			}
			for i := range sw {
				if !bytes.Equal(sw[i].Data, sr[i].Data) {
					t.Fatalf("n=%d k=%d len=%d: share %d differs between engines",
						shape.n, shape.k, plen, i)
				}
			}
		}
	}
}

// TestPlanCacheHitReturnsSamePlan: the second decode of an erasure pattern
// must reuse the cached plan object, and distinct patterns must not collide.
func TestPlanCacheHitReturnsSamePlan(t *testing.T) {
	c, err := NewCodec(7, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := new(Scratch)
	payload := goldenPayload(64, 1)
	shares, _ := c.Encode(payload)

	chosenA, err := c.selectShares(s, erase(shares, []int{0, 2, 4, 6}))
	if err != nil {
		t.Fatal(err)
	}
	pA1 := c.planFor(s, chosenA)
	pA2 := c.planFor(s, chosenA)
	if pA1 != pA2 {
		t.Fatal("repeat pattern did not hit the plan cache")
	}
	chosenB, err := c.selectShares(s, erase(shares, []int{1, 2, 4, 6}))
	if err != nil {
		t.Fatal(err)
	}
	if pB := c.planFor(s, chosenB); pB == pA1 {
		t.Fatal("distinct patterns shared a plan")
	}
	if got := c.plans.len(); got != 2 {
		t.Fatalf("cache holds %d plans, want 2", got)
	}
}

// TestPlanCacheEviction: the cache is bounded — flooding it with more
// distinct erasure patterns than planCacheMaxEntries must evict down to the
// bound, and decodes must stay correct throughout.
func TestPlanCacheEviction(t *testing.T) {
	c, err := NewCodec(16, 8)
	if err != nil {
		t.Fatal(err)
	}
	payload := goldenPayload(256, 2)
	shares, _ := c.Encode(payload)
	rng := rand.New(rand.NewSource(3))
	patterns := 0
	seen := map[string]bool{}
	for patterns < planCacheMaxEntries+20 {
		keep := rng.Perm(16)[:8]
		key := fmt.Sprint(keep)
		if seen[key] {
			continue
		}
		seen[key] = true
		patterns++
		got, err := c.decode(nil, nil, erase(shares, keep), true)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("decode wrong after %d patterns", patterns)
		}
	}
	if got := c.plans.len(); got > planCacheMaxEntries {
		t.Fatalf("cache grew to %d plans, bound is %d", got, planCacheMaxEntries)
	}
}

// TestCodecConcurrentUse hammers one shared Codec from many goroutines with
// mixed encodes and decodes over distinct erasure patterns. Under -race
// this is the goroutine-safety contract check for the plan cache and the
// lazily built encode tables; each goroutine reuses a Scratch of its own.
func TestCodecConcurrentUse(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	c, err := NewCodec(13, 8)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	const iters = 40
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			var enc, dec Scratch
			for i := 0; i < iters; i++ {
				payload := make([]byte, 1+rng.Intn(4096))
				rng.Read(payload)
				shares, err := c.EncodeTo(&enc, nil, payload)
				if err != nil {
					errs <- err
					return
				}
				keep := rng.Perm(13)[:8]
				got, err := c.DecodeTo(&dec, nil, erase(shares, keep))
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, payload) {
					errs <- fmt.Errorf("goroutine %d iter %d: round trip failed", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
