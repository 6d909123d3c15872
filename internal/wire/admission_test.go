package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

func TestReasonString(t *testing.T) {
	cases := map[Reason]string{
		ReasonNone:        "none",
		ReasonBudget:      "budget",
		ReasonRate:        "rate",
		ReasonStall:       "stall",
		ReasonProtocol:    "protocol",
		ReasonHandshake:   "handshake",
		ReasonUnreachable: "unreachable",
		Reason(250):       "reason(250)",
	}
	for r, want := range cases {
		if got := r.String(); got != want {
			t.Errorf("Reason(%d).String() = %q, want %q", uint8(r), got, want)
		}
	}
}

func TestBudgetNormalized(t *testing.T) {
	b := Budget{}.normalized()
	if b.FrameBytes == 0 || b.RoundFrames == 0 || b.RoundBytes == 0 || b.BurstRounds == 0 {
		t.Fatalf("zero fields survived normalization: %+v", b)
	}
	// RoundBytes below FrameBytes would starve honest maximal frames.
	b = Budget{FrameBytes: 1 << 20, RoundBytes: 1 << 10}.normalized()
	if b.RoundBytes < b.FrameBytes {
		t.Fatalf("RoundBytes %d below FrameBytes %d after normalization", b.RoundBytes, b.FrameBytes)
	}
}

func TestAdmissionFrameTooLarge(t *testing.T) {
	a := NewAdmission(Budget{FrameBytes: 1024})
	if err := a.AdmitFrame(1024); err != nil {
		t.Fatalf("frame at the limit refused: %v", err)
	}
	err := a.AdmitFrame(1025)
	if err == nil {
		t.Fatal("oversize frame admitted")
	}
	if !errors.Is(err, ErrAdmission) {
		t.Fatalf("oversize rejection does not wrap ErrAdmission: %v", err)
	}
	var ae *AdmissionError
	if !errors.As(err, &ae) || ae.Reason != ReasonBudget {
		t.Fatalf("want ReasonBudget, got %v", err)
	}
	c := a.Counters()
	if c.FramesAdmitted != 1 || c.FramesRejected != 1 || c.BytesAdmitted != 1024 {
		t.Fatalf("counters off: %+v", c)
	}
}

func TestAdmissionFrameRate(t *testing.T) {
	a := NewAdmission(Budget{FrameBytes: 1 << 16, RoundFrames: 2, BurstRounds: 1})
	for i := 0; i < 2; i++ {
		if err := a.AdmitFrame(10); err != nil {
			t.Fatalf("frame %d within burst refused: %v", i, err)
		}
	}
	err := a.AdmitFrame(10)
	var ae *AdmissionError
	if !errors.As(err, &ae) || ae.Reason != ReasonRate {
		t.Fatalf("want ReasonRate on empty bucket, got %v", err)
	}
	// Advancing the round clock replenishes the bucket.
	a.Advance(1)
	if err := a.AdmitFrame(10); err != nil {
		t.Fatalf("frame refused after replenish: %v", err)
	}
	// An old (or repeated) round is a no-op, not a refund.
	a.Advance(1)
	a.Advance(0)
	if err := a.AdmitFrame(10); err != nil {
		t.Fatalf("second post-replenish frame refused: %v", err)
	}
	if err := a.AdmitFrame(10); err == nil {
		t.Fatal("stale Advance refunded tokens")
	}
}

func TestAdmissionByteRate(t *testing.T) {
	a := NewAdmission(Budget{FrameBytes: 1 << 10, RoundBytes: 1 << 10, RoundFrames: 100, BurstRounds: 1})
	if err := a.AdmitFrame(1 << 10); err != nil {
		t.Fatalf("first frame refused: %v", err)
	}
	err := a.AdmitFrame(1)
	var ae *AdmissionError
	if !errors.As(err, &ae) || ae.Reason != ReasonRate {
		t.Fatalf("want ReasonRate on byte exhaustion, got %v", err)
	}
	a.Advance(7)
	if err := a.AdmitFrame(1 << 10); err != nil {
		t.Fatalf("frame refused after byte replenish: %v", err)
	}
}

func TestAdmissionAdvanceOverflowSafe(t *testing.T) {
	a := NewAdmission(Budget{FrameBytes: 1 << 20, RoundFrames: ^uint64(0) / 2, RoundBytes: ^uint64(0) / 2, BurstRounds: ^uint64(0) / 2})
	a.Advance(^uint64(0) - 1) // absurd round jump must saturate, not wrap
	if err := a.AdmitFrame(1 << 20); err != nil {
		t.Fatalf("saturated bucket refused a frame: %v", err)
	}
}

// TestAdmissionRejoinBurst pins the contract that the default budget's
// burst capacity covers a full rejoin replay: a recovering peer receives
// up to RejoinWindow buffered frames back-to-back before any round ticks.
func TestAdmissionRejoinBurst(t *testing.T) {
	const rejoinWindow = 128
	a := NewAdmission(DefaultBudget(64<<20, rejoinWindow))
	for i := 0; i < rejoinWindow; i++ {
		if err := a.AdmitFrame(4096); err != nil {
			t.Fatalf("replay frame %d refused: %v", i, err)
		}
	}
}

// trapReader serves its prefix and fails the test if the consumer reads
// past it — used to prove the gate fires before any body read/allocation.
type trapReader struct {
	t      *testing.T
	prefix *bytes.Reader
}

func (tr *trapReader) Read(p []byte) (int, error) {
	if tr.prefix.Len() == 0 {
		tr.t.Fatal("read past the length prefix: gate did not fire before body allocation")
	}
	return tr.prefix.Read(p)
}

func TestReadFrameGatedRefusesBeforeBody(t *testing.T) {
	frame := EncodeFrame(5, [][]byte{bytes.Repeat([]byte("a"), 2048)})
	a := NewAdmission(Budget{FrameBytes: 1024})

	// Copying path: only hand the decoder the length varint.
	var sizeLen int
	for sizeLen = 0; frame[sizeLen] >= 0x80; sizeLen++ {
	}
	sizeLen++
	tr := &trapReader{t: t, prefix: bytes.NewReader(frame[:sizeLen])}
	_, _, err := ReadFrameGated(tr, 64<<20, a)
	var ae *AdmissionError
	if !errors.As(err, &ae) || ae.Reason != ReasonBudget {
		t.Fatalf("copying path: want ReasonBudget before body read, got %v", err)
	}

	// Borrowing path, same contract, through the buffered stream it takes:
	// the buffer's one fill reads what the trap holds, the length, and the
	// gate must refuse before the body read asks for more.
	var arena Arena
	tr = &trapReader{t: t, prefix: bytes.NewReader(frame[:sizeLen])}
	_, _, f, err := arena.ReadFrameIntoGated(bufio.NewReader(tr), 64<<20, nil, a)
	if f != nil {
		t.Fatal("borrowing path allocated a frame for refused traffic")
	}
	if !errors.As(err, &ae) || ae.Reason != ReasonBudget {
		t.Fatalf("borrowing path: want ReasonBudget before body read, got %v", err)
	}
}

// TestReadFrameGatedStructuralFirst pins the check order: a frame beyond
// the structural maxFrame is a protocol violation (ErrFrame) even when a
// gate is present, and the gate is not charged for it.
func TestReadFrameGatedStructuralFirst(t *testing.T) {
	w := NewWriter(16)
	w.Uvarint((64 << 20) + 1)
	raw := w.Finish()
	a := NewAdmission(Budget{FrameBytes: 16})
	_, _, err := ReadFrameGated(bytes.NewReader(raw), 64<<20, a)
	if !errors.Is(err, ErrFrame) {
		t.Fatalf("want ErrFrame for structural violation, got %v", err)
	}
	if c := a.Counters(); c.FramesRejected != 0 {
		t.Fatalf("gate charged for a structural violation: %+v", c)
	}
}

func TestReadFrameGatedAdmitsHonest(t *testing.T) {
	frame := EncodeFrame(9, [][]byte{[]byte("alpha"), []byte("beta")})
	a := NewAdmission(Budget{FrameBytes: 4096})
	round, payloads, err := ReadFrameGated(bytes.NewReader(frame), 64<<20, a)
	if err != nil || round != 9 || len(payloads) != 2 {
		t.Fatalf("honest frame: round %d, %d payloads, err %v", round, len(payloads), err)
	}
	var arena Arena
	round, payloads, f, err := arena.ReadFrameIntoGated(bytes.NewReader(frame), 64<<20, nil, a)
	if err != nil || round != 9 || len(payloads) != 2 {
		t.Fatalf("honest frame (borrowing): round %d, %d payloads, err %v", round, len(payloads), err)
	}
	f.Release()
	if c := a.Counters(); c.FramesAdmitted != 2 || c.FramesRejected != 0 {
		t.Fatalf("counters off: %+v", c)
	}
}

func TestAdmissionErrorMessage(t *testing.T) {
	err := StallError("no progress for 2s mid-frame")
	if !errors.Is(err, ErrAdmission) {
		t.Fatal("StallError does not wrap ErrAdmission")
	}
	if !strings.Contains(err.Error(), "stall") {
		t.Fatalf("stall error message lacks reason: %q", err.Error())
	}
}

// BenchmarkAdmission measures the honest-traffic fast path: one
// AdmitFrame plus one Advance per frame. The acceptance bar is 0
// allocs/op — admission must not tax the zero-copy read path.
func BenchmarkAdmission(b *testing.B) {
	a := NewAdmission(DefaultBudget(64<<20, 128))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Advance(uint64(i))
		if err := a.AdmitFrame(4096); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdmissionGatedRead measures the full gated borrowing decode of
// a typical honest frame, pinning that the gate adds no allocations to
// the pooled read path (0 allocs/op, same as BenchmarkFrameRoundTrip).
func BenchmarkAdmissionGatedRead(b *testing.B) {
	payload := bytes.Repeat([]byte("p"), 1024)
	frame := EncodeFrame(1, [][]byte{payload, payload, payload, payload})
	a := NewAdmission(DefaultBudget(64<<20, 128))
	var arena Arena
	var scratch [][]byte
	r := bytes.NewReader(frame)
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Advance(uint64(i))
		r.Reset(frame)
		_, payloads, f, err := arena.ReadFrameIntoGated(r, 64<<20, scratch, a)
		if err != nil {
			b.Fatal(err)
		}
		scratch = payloads[:0]
		f.Release()
	}
}

var _ io.Reader = (*trapReader)(nil)
var _ Gate = (*Admission)(nil)
