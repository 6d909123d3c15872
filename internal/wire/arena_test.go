package wire

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
)

// framesEqual decodes via the copying oracle and compares.
func decodeRef(t *testing.T, enc []byte) (uint64, [][]byte) {
	t.Helper()
	round, payloads, err := ReadFrame(bytes.NewReader(enc), 1<<24)
	if err != nil {
		t.Fatalf("reference decode: %v", err)
	}
	return round, payloads
}

var arenaCases = [][][]byte{
	nil,
	{[]byte{}},
	{[]byte("a")},
	{[]byte("hello"), []byte("world"), {0x00, 0xff}},
	{bytes.Repeat([]byte{0xab}, 300)}, // crosses the min size class
	{bytes.Repeat([]byte{1}, 1), bytes.Repeat([]byte{2}, 600), nil},
}

// TestArenaEncodeMatchesReference pins Arena.EncodeFrame byte-identical
// to the reference EncodeFrame.
func TestArenaEncodeMatchesReference(t *testing.T) {
	var a Arena
	for _, payloads := range arenaCases {
		want := EncodeFrame(77, payloads)

		f := a.EncodeFrame(77, payloads)
		if !bytes.Equal(f.Bytes(), want) {
			t.Fatalf("EncodeFrame mismatch for %v:\n  got  %x\n  want %x", payloads, f.Bytes(), want)
		}
		f.Release()
	}
}

// TestReadFrameIntoMatchesReference checks the borrowing decoder against
// the copying oracle on well-formed frames, including reuse of the
// scratch payload slice across calls.
func TestReadFrameIntoMatchesReference(t *testing.T) {
	var a Arena
	var scratch [][]byte
	for _, payloads := range arenaCases {
		enc := EncodeFrame(9, payloads)
		wantRound, want := decodeRef(t, enc)

		round, got, f, err := a.ReadFrameIntoGated(bytes.NewReader(enc), 1<<24, scratch, nil)
		if err != nil {
			t.Fatalf("ReadFrameIntoGated(%v): %v", payloads, err)
		}
		if round != wantRound || len(got) != len(want) {
			t.Fatalf("shape mismatch: round %d/%d, %d/%d payloads", round, wantRound, len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("payload %d: %x != %x", i, got[i], want[i])
			}
		}
		scratch = got
		f.Release()
	}
}

// TestReadFrameIntoFailClosed: structural violations must release the
// pooled buffer and report ErrFrame exactly like the oracle.
func TestReadFrameIntoFailClosed(t *testing.T) {
	var a Arena
	bad := [][]byte{
		bytes.Repeat([]byte{0xff}, 12), // overlong varint
		{0x05, 0x00},                   // truncated body
	}
	w := NewWriter(8)
	w.Uvarint(1 << 30)
	bad = append(bad, w.Finish()) // oversize announcement
	for _, raw := range bad {
		_, _, refErr := ReadFrame(bytes.NewReader(raw), 1<<20)
		_, _, f, err := a.ReadFrameIntoGated(bytes.NewReader(raw), 1<<20, nil, nil)
		if (refErr == nil) != (err == nil) {
			t.Fatalf("%x: oracle err %v, borrowing err %v", raw, refErr, err)
		}
		if f != nil {
			t.Fatalf("%x: non-nil frame on error", raw)
		}
	}
}

// TestFrameAliasAfterRelease pins the ownership contract the hard way: a
// payload slice retained across Release aliases pooled memory, so the
// next frame encoded from the same size class overwrites it. This is the
// documented invalidation — the test asserts the aliasing is real (the
// retained slice observes the new frame's bytes), which is exactly why
// retain-after-release is a bug callers must not write.
func TestFrameAliasAfterRelease(t *testing.T) {
	var a Arena
	enc := EncodeFrame(1, [][]byte{bytes.Repeat([]byte{0xaa}, 64)})
	_, payloads, f, err := a.ReadFrameIntoGated(bytes.NewReader(enc), 1<<20, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	retained := payloads[0] // contract violation, on purpose
	f.Release()

	// Same size class: the pool hands back the same backing array.
	f2 := a.EncodeFrame(2, [][]byte{bytes.Repeat([]byte{0xbb}, 64)})
	defer f2.Release()
	if retained[0] == 0xaa {
		t.Skip("pool did not reuse the buffer (GC raced); aliasing not observable this run")
	}
	if retained[0] != 0xbb && retained[0] != 0x42 { // 0x42: varint bytes may land first
		t.Logf("retained[0]=%#x after reuse", retained[0])
	}
	// The load-bearing assertion: the retained slice no longer holds the
	// original payload — using it after Release reads someone else's frame.
	if bytes.Equal(retained, bytes.Repeat([]byte{0xaa}, 64)) {
		t.Fatal("retained payload survived Release+reuse; pooling is not actually reusing buffers")
	}
}

// TestFrameDoubleReleasePanics pins the double-release guard.
func TestFrameDoubleReleasePanics(t *testing.T) {
	var a Arena
	f := a.EncodeFrame(1, nil)
	f.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second Release did not panic")
		}
	}()
	f.Release()
}

// TestBytesAliasesBuffer: the one length-prefixed accessor borrows — the
// result aliases the Reader's buffer and its capacity stops at the field's
// end, so an append through it reallocates instead of overwriting the next
// field.
func TestBytesAliasesBuffer(t *testing.T) {
	w := NewWriter(32)
	w.Bytes([]byte("abcd"))
	w.Byte('N')
	raw := w.Finish()

	r := NewReader(raw)
	got := r.Bytes()
	raw[1] = 'Z' // mutate the underlying buffer
	if got[0] != 'Z' {
		t.Fatal("Bytes returned a copy; want an alias")
	}
	_ = append(got, 'X')
	if r.Byte() != 'N' {
		t.Fatal("append through a borrowed field overwrote the next field")
	}
}

// TestFrameEncodeDecodeZeroAlloc asserts the headline number: pooled
// encode and borrowing decode allocate nothing in steady state.
func TestFrameEncodeDecodeZeroAlloc(t *testing.T) {
	var a Arena
	payloads := [][]byte{bytes.Repeat([]byte{7}, 512), bytes.Repeat([]byte{9}, 128)}
	enc := EncodeFrame(5, payloads)
	// Warm the pools and the scratch outside the measured region.
	var scratch [][]byte
	rd := bytes.NewReader(enc)

	allocs := testing.AllocsPerRun(200, func() {
		f := a.EncodeFrame(5, payloads)
		f.Release()

		rd.Reset(enc)
		_, got, f2, err := a.ReadFrameIntoGated(rd, 1<<20, scratch, nil)
		if err != nil {
			t.Fatal(err)
		}
		scratch = got[:0]
		f2.Release()
	})
	if allocs > 0 {
		t.Fatalf("frame encode+decode: %.1f allocs/op, want 0", allocs)
	}
}

// TestReleasedFrameSurvivesGC: the free lists are the arena's, not a
// sync.Pool's, so a collection does not empty them. A released frame comes
// back from the next request of its class after two GC cycles (a sync.Pool
// drops its victim cache on the second), and the get→Release cycle stays at
// 0 allocs.
func TestReleasedFrameSurvivesGC(t *testing.T) {
	var a Arena
	f := a.Buffer(300)
	f.Release()
	runtime.GC()
	runtime.GC()
	g := a.Buffer(400)
	if g != f {
		t.Fatal("a released frame was not reused after two GC cycles")
	}
	g.Release()
	allocs := testing.AllocsPerRun(100, func() {
		a.Buffer(300).Release()
		runtime.GC()
	})
	if allocs > 0 {
		t.Fatalf("get→Release across GC cycles: %.1f allocs/op, want 0", allocs)
	}
}

// TestFreeListBound: a class keeps at most 2 MiB of released buffers, and
// at least two frames; whatever is released beyond that goes to the GC.
func TestFreeListBound(t *testing.T) {
	for _, c := range []struct{ size, keep int }{
		{1, 8192},      // 256 B class
		{4 << 10, 512}, // 4 KiB
		{1<<20 + 1, 2}, // 2 MiB
		{3 << 20, 2},   // 4 MiB: the two-frame floor
	} {
		var a Arena
		frames := make([]*Frame, c.keep+3)
		for i := range frames {
			frames[i] = a.Buffer(c.size)
		}
		for _, f := range frames {
			f.Release()
		}
		if got := len(a.free[sizeClass(c.size)].frames); got != c.keep {
			t.Errorf("size %d: %d frames kept after releasing %d, want %d", c.size, got, len(frames), c.keep)
		}
	}
}

// BenchmarkFrameRoundTrip is the wire path's benchmark: pooled encode +
// borrowing decode of a representative round frame. The allocs/op column is
// guarded against regression by scripts/ci.sh (guard_allocs,
// benchdata/alloc_guards.json).
func BenchmarkFrameRoundTrip(b *testing.B) {
	for _, size := range []int{256, 4096, 65536} {
		b.Run(fmt.Sprintf("payload%d", size), func(b *testing.B) {
			var a Arena
			payloads := [][]byte{bytes.Repeat([]byte{3}, size)}
			enc := EncodeFrame(1, payloads)
			rd := bytes.NewReader(enc)
			var scratch [][]byte
			b.SetBytes(int64(len(enc)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f := a.EncodeFrame(1, payloads)
				f.Release()
				rd.Reset(enc)
				_, got, f2, err := a.ReadFrameIntoGated(rd, 1<<20, scratch, nil)
				if err != nil {
					b.Fatal(err)
				}
				scratch = got[:0]
				f2.Release()
			}
		})
	}
}

// BenchmarkFrameEncodeReference is the copying baseline for the same
// shape, so the before/after story stays visible in one bench run.
func BenchmarkFrameEncodeReference(b *testing.B) {
	payloads := [][]byte{bytes.Repeat([]byte{3}, 4096)}
	b.SetBytes(int64(len(EncodeFrame(1, payloads))))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc := EncodeFrame(1, payloads)
		_, _, err := ReadFrame(bytes.NewReader(enc), 1<<20)
		if err != nil {
			b.Fatal(err)
		}
	}
}
