package wire

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	w := NewWriter(64)
	w.Byte(7)
	w.Uvarint(0)
	w.Uvarint(1 << 40)
	w.Bytes([]byte("hello"))
	w.Bytes(nil)
	w.Raw([]byte{1, 2, 3})
	raw := w.Finish()

	r := NewReader(raw)
	if got := r.Byte(); got != 7 {
		t.Errorf("byte = %d", got)
	}
	if got := r.Uvarint(); got != 0 {
		t.Errorf("uvarint = %d", got)
	}
	if got := r.Uvarint(); got != 1<<40 {
		t.Errorf("uvarint = %d", got)
	}
	if got := r.Bytes(); !bytes.Equal(got, []byte("hello")) {
		t.Errorf("bytes = %q", got)
	}
	if got := r.Bytes(); len(got) != 0 {
		t.Errorf("empty bytes = %q", got)
	}
	if got := []byte{r.Byte(), r.Byte(), r.Byte()}; !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("raw = %v", got)
	}
	if err := r.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
}

func TestTruncations(t *testing.T) {
	w := NewWriter(0)
	w.Bytes([]byte("abcdef"))
	raw := w.Finish()
	for cut := 0; cut < len(raw); cut++ {
		r := NewReader(raw[:cut])
		r.Bytes()
		if err := r.Close(); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestTrailingGarbageRejected(t *testing.T) {
	w := NewWriter(0)
	w.Byte(1)
	raw := append(w.Finish(), 0xee)
	r := NewReader(raw)
	r.Byte()
	if err := r.Close(); err == nil {
		t.Error("trailing garbage accepted")
	}
}

func TestHugeLengthRejected(t *testing.T) {
	w := NewWriter(0)
	w.Uvarint(1 << 62) // bogus length prefix
	r := NewReader(w.Finish())
	if got := r.Bytes(); got != nil {
		t.Errorf("got %d bytes from bogus prefix", len(got))
	}
	if r.Err() == nil {
		t.Error("huge length accepted")
	}
	r2 := NewReader(w.Finish())
	if r2.Int(); r2.Err() == nil {
		t.Error("huge int accepted")
	}
}

func TestErrorsSticky(t *testing.T) {
	r := NewReader(nil)
	r.Byte() // fails
	if r.Err() == nil {
		t.Fatal("expected error")
	}
	// Subsequent reads must be inert.
	if r.Byte() != 0 || r.Uvarint() != 0 || r.Bytes() != nil || r.Int() != 0 {
		t.Error("reads after error returned data")
	}
}

func TestFuzzRandomBytesNeverPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 2000; trial++ {
		raw := make([]byte, rng.Intn(64))
		rng.Read(raw)
		r := NewReader(raw)
		// A representative decode schedule.
		r.Byte()
		r.Uvarint()
		r.Bytes()
		r.Int()
		_ = r.Close()
	}
}

// TestOptionFrame: "v or ⊥" round-trips, the empty value is a value and not
// ⊥, the decoded value borrows the frame, and anything that is neither
// frame reads as ⊥.
func TestOptionFrame(t *testing.T) {
	for _, v := range [][]byte{nil, {}, {0}, {1}, []byte("value"), bytes.Repeat([]byte{9}, 4096)} {
		frame := Some(v)
		if len(frame) != 1+len(v) || frame[0] != 1 {
			t.Fatalf("Some(%x) = %x", v, frame)
		}
		got, ok := Option(frame)
		if !ok || !bytes.Equal(got, v) {
			t.Fatalf("Option(Some(%x)) = (%x, %v)", v, got, ok)
		}
		if len(got) > 0 && &got[0] != &frame[1] {
			t.Fatal("the decoded value is a copy, want a view of the frame")
		}
	}
	if bytes.Equal(Some(nil), None()) {
		t.Fatal("Some of the empty value equals None")
	}
	if !bytes.Equal(None(), []byte{0}) {
		t.Fatalf("None() = %x", None())
	}
	a, b := None(), None()
	if a[0] = 9; b[0] != 0 {
		t.Fatal("None() hands out shared storage")
	}
	for _, raw := range [][]byte{nil, {}, None(), {0, 1}, {2}, {2, 'v'}, {0xFF, 0xFF}} {
		if v, ok := Option(raw); ok || v != nil {
			t.Fatalf("Option(%x) = (%x, %v), want ⊥", raw, v, ok)
		}
	}
}
