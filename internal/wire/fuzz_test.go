package wire

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzReader drives a representative decode schedule over arbitrary bytes:
// the Reader must never panic and must fail closed.
func FuzzReader(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01})
	w := NewWriter(32)
	w.Byte(3)
	w.Uvarint(1 << 40)
	w.Bytes([]byte("seed"))
	f.Add(w.Finish())
	f.Add(bytes.Repeat([]byte{0xff}, 24))

	f.Fuzz(func(t *testing.T, raw []byte) {
		r := NewReader(raw)
		r.Byte()
		n := r.Uvarint()
		b := r.Bytes()
		if r.Err() == nil && uint64(len(b)) > n+64 {
			// Bytes length is bounded by its own prefix, not the earlier
			// uvarint; this is just a sanity anchor for the fuzzer.
			_ = b
		}
		r.Int()
		_ = r.Close()
	})
}

// FuzzReadFrame throws arbitrary bytes at the stream-frame decoder: it must
// never panic, never allocate beyond the frame bound, and decode cleanly
// only into frames that re-encode to an equivalent parse. Seeds are golden
// frames produced by EncodeFrame.
func FuzzReadFrame(f *testing.F) {
	f.Add(EncodeFrame(0, nil))
	f.Add(EncodeFrame(3, [][]byte{[]byte("x")}))
	f.Add(EncodeFrame(1<<40, [][]byte{[]byte("alpha"), {}, []byte("beta")}))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 16))

	const limit = 1 << 16
	f.Fuzz(func(t *testing.T, raw []byte) {
		round, payloads, err := ReadFrame(bytes.NewReader(raw), limit)
		if err != nil {
			return
		}
		// Successful parses must survive a canonical re-encode round trip.
		r2, p2, err := ReadFrame(bytes.NewReader(EncodeFrame(round, payloads)), limit+64)
		if err != nil {
			t.Fatalf("re-encoded frame unreadable: %v", err)
		}
		if r2 != round || len(p2) != len(payloads) {
			t.Fatalf("round trip changed shape: round %d→%d, %d→%d payloads", round, r2, len(payloads), len(p2))
		}
		for i := range p2 {
			if !bytes.Equal(p2[i], payloads[i]) {
				t.Fatalf("payload %d changed across round trip", i)
			}
		}
	})
}

// FuzzReadFrameInto holds the borrowing decoder differentially equal to
// the copying oracle on every input: identical error classification
// (ErrFrame vs I/O vs clean), identical round, and byte-identical
// payloads. The arena path re-reads each input twice so pooled-buffer
// reuse across iterations is exercised under the fuzzer.
func FuzzReadFrameInto(f *testing.F) {
	f.Add(EncodeFrame(0, nil))
	f.Add(EncodeFrame(3, [][]byte{[]byte("x")}))
	f.Add(EncodeFrame(1<<40, [][]byte{[]byte("alpha"), {}, []byte("beta")}))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 16))

	const limit = 1 << 16
	var arena Arena
	var scratch [][]byte
	f.Fuzz(func(t *testing.T, raw []byte) {
		wantRound, wantPayloads, wantErr := ReadFrame(bytes.NewReader(raw), limit)
		gotRound, gotPayloads, frame, gotErr := arena.ReadFrameIntoGated(bytes.NewReader(raw), limit, scratch, nil)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("error divergence: oracle %v, borrowing %v", wantErr, gotErr)
		}
		if wantErr != nil {
			if errorsIsFrame(wantErr) != errorsIsFrame(gotErr) {
				t.Fatalf("error class divergence: oracle %v, borrowing %v", wantErr, gotErr)
			}
			return
		}
		defer frame.Release()
		if gotRound != wantRound || len(gotPayloads) != len(wantPayloads) {
			t.Fatalf("shape divergence: round %d/%d, %d/%d payloads", gotRound, wantRound, len(gotPayloads), len(wantPayloads))
		}
		for i := range gotPayloads {
			if !bytes.Equal(gotPayloads[i], wantPayloads[i]) {
				t.Fatalf("payload %d diverged", i)
			}
		}
		scratch = gotPayloads[:0]
	})
}

func errorsIsFrame(err error) bool { return errors.Is(err, ErrFrame) }

// FuzzAdmission streams arbitrary bytes through the gated decoders under a
// fuzzer-chosen budget: the admission validator must never panic, must
// never let cumulative admitted traffic exceed the bucket capacities, and
// must classify every failure as exactly one of I/O, protocol (ErrFrame),
// or admission (ErrAdmission). The borrowing and copying gated paths are
// held differentially equal on identical gate state.
func FuzzAdmission(f *testing.F) {
	f.Add(EncodeFrame(0, nil), uint64(1<<10), uint64(2), uint64(3))
	f.Add(EncodeFrame(3, [][]byte{[]byte("x")}), uint64(1), uint64(1), uint64(1))
	f.Add(bytes.Repeat([]byte{0xff}, 32), uint64(64), uint64(4), uint64(2))
	big := EncodeFrame(1, [][]byte{bytes.Repeat([]byte("b"), 4096)})
	f.Add(append(big, big...), uint64(512), uint64(8), uint64(8))

	const limit = 1 << 16
	var arena Arena
	f.Fuzz(func(t *testing.T, raw []byte, frameBytes, roundFrames, burst uint64) {
		b := Budget{
			FrameBytes:  frameBytes%(1<<12) + 1,
			RoundFrames: roundFrames%16 + 1,
			BurstRounds: burst%16 + 1,
		}
		gate := NewAdmission(b)
		oracle := NewAdmission(b)
		frameCap, byteCap := gate.budget.capacities()
		r := bytes.NewReader(raw)
		ro := bytes.NewReader(raw)
		for {
			_, _, frame, err := arena.ReadFrameIntoGated(r, limit, nil, gate)
			_, _, oerr := ReadFrameGated(ro, limit, oracle)
			if (err == nil) != (oerr == nil) ||
				errors.Is(err, ErrAdmission) != errors.Is(oerr, ErrAdmission) ||
				errorsIsFrame(err) != errorsIsFrame(oerr) {
				t.Fatalf("gated path divergence: borrowing %v, copying %v", err, oerr)
			}
			if err != nil {
				break
			}
			frame.Release()
		}
		c := gate.Counters()
		if c.FramesAdmitted > frameCap {
			t.Fatalf("admitted %d frames, capacity %d", c.FramesAdmitted, frameCap)
		}
		if c.BytesAdmitted > byteCap {
			t.Fatalf("admitted %d bytes, capacity %d", c.BytesAdmitted, byteCap)
		}
		if oc := oracle.Counters(); oc != c {
			t.Fatalf("counter divergence: borrowing %+v, copying %+v", c, oc)
		}
	})
}

// FuzzRoundTrip checks encode∘decode identity on fuzzer-chosen field
// values.
func FuzzRoundTrip(f *testing.F) {
	f.Add(byte(1), uint64(77), []byte("abc"))
	f.Fuzz(func(t *testing.T, b byte, v uint64, chunk []byte) {
		w := NewWriter(16 + len(chunk))
		w.Byte(b)
		w.Uvarint(v)
		w.Bytes(chunk)
		r := NewReader(w.Finish())
		if got := r.Byte(); got != b {
			t.Fatalf("byte %d != %d", got, b)
		}
		if got := r.Uvarint(); got != v {
			t.Fatalf("uvarint %d != %d", got, v)
		}
		if got := r.Bytes(); !bytes.Equal(got, chunk) {
			t.Fatalf("bytes %v != %v", got, chunk)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	})
}
