// Package wire provides a compact, deterministic, panic-free binary codec
// for protocol messages.
//
// Every protocol message in this codebase is encoded with a Writer and
// decoded with a Reader. Readers never panic and fail closed: any
// truncation, overflow, or trailing garbage yields an error, so byzantine
// payloads can at worst be ignored, never crash an honest party or smuggle
// an inconsistent parse.
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrCorrupt reports a malformed encoding.
var ErrCorrupt = errors.New("wire: corrupt message")

// maxChunk bounds any single length-prefixed field (64 MiB). Honest messages
// are far smaller; the bound stops byzantine length fields from causing
// giant allocations.
const maxChunk = 64 << 20

// Writer accumulates an encoded message.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer with the given capacity hint.
func NewWriter(sizeHint int) *Writer {
	return &Writer{buf: make([]byte, 0, sizeHint)}
}

// Reset points the Writer at buf (length zeroed, capacity kept), so an
// encode loop can reuse one backing array — typically a pooled Frame's —
// instead of allocating per message. The previous contents are abandoned.
func (w *Writer) Reset(buf []byte) { w.buf = buf[:0] }

// Byte appends a single byte.
func (w *Writer) Byte(b byte) { w.buf = append(w.buf, b) }

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

// Bytes appends a length-prefixed byte slice.
func (w *Writer) Bytes(p []byte) {
	w.Uvarint(uint64(len(p)))
	w.buf = append(w.buf, p...)
}

// Raw appends bytes with no length prefix (for fixed-size fields).
func (w *Writer) Raw(p []byte) { w.buf = append(w.buf, p...) }

// Finish returns the encoded message.
func (w *Writer) Finish() []byte { return w.buf }

// Some frames a present value for a message that carries "v or ⊥":
// 0x01 ‖ v. The empty value is a value: Some(nil) is not None().
func Some(v []byte) []byte {
	out := make([]byte, 1+len(v))
	out[0] = 1
	copy(out[1:], v)
	return out
}

// None frames ⊥: the single byte 0x00. Every call returns a fresh slice,
// because in-process transports deliver a sender's payload by reference.
func None() []byte { return []byte{0} }

// Option splits a "v or ⊥" frame: (v, true) for Some(v), with v borrowing
// raw, and (nil, false) for None() and for anything else — a byzantine
// frame that is neither reads as ⊥.
func Option(raw []byte) ([]byte, bool) {
	if len(raw) < 1 || raw[0] != 1 {
		return nil, false
	}
	return raw[1:], true
}

// sameLane is the lane frame's repeat marker: the length prefix 0, which no
// lane has, since every lane is a non-empty frame.
const sameLane = 0

// Lanes frames a message that carries one frame per lane — an option frame
// (Some/None) in every batched instance — for k independent instances that
// share a round. Each lane is length-prefixed, except that a lane equal to
// the lane before it is the one byte sameLane: Π_BA+'s b, which usually
// repeats its a, costs a byte. Every frame must be non-empty.
func Lanes(frames [][]byte) []byte {
	size := 0
	for _, f := range frames {
		size += binary.MaxVarintLen32 + len(f)
	}
	w := Writer{buf: make([]byte, 0, size)}
	for l, f := range frames {
		if l > 0 && bytes.Equal(f, frames[l-1]) {
			w.Byte(sameLane)
		} else {
			w.Bytes(f)
		}
	}
	return w.Finish()
}

// SplitLanes reads a len(dst)-lane frame into dst, every lane borrowing raw
// (a repeated lane is its predecessor's slice). A repeat marker in lane 0,
// a lane count other than len(dst) or trailing bytes make the message no
// lane frame at all: SplitLanes reports false, and the caller ignores the
// sender's message as it ignores any malformed one.
func SplitLanes(raw []byte, dst [][]byte) bool {
	r := Reader{buf: raw}
	for l := range dst {
		f := r.Bytes()
		if r.err != nil || (len(f) == sameLane && l == 0) {
			return false
		}
		if len(f) == sameLane {
			f = dst[l-1]
		}
		dst[l] = f
	}
	return r.off == len(raw)
}

// Reader decodes a message produced by Writer.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps raw bytes for decoding.
func NewReader(raw []byte) *Reader { return &Reader{buf: raw} }

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
	}
}

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.fail("truncated byte")
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail("truncated or overlong uvarint")
		return 0
	}
	r.off += n
	return v
}

// Bytes reads a length-prefixed byte slice. The result aliases the
// Reader's buffer (capacity clipped, so an append through it cannot bleed
// into the next field): it lives exactly as long as that buffer does. When
// the buffer is a delivered payload that is until the next Exchange on the
// transport (transport.Net); a caller that keeps the bytes longer says
// bytes.Clone at the call site.
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > maxChunk || int(n) > len(r.buf)-r.off {
		r.fail("chunk of %d bytes exceeds message", n)
		return nil
	}
	out := r.buf[r.off : r.off+int(n) : r.off+int(n)]
	r.off += int(n)
	return out
}

// Int reads a uvarint and narrows it to a non-negative int, failing on
// overflow.
func (r *Reader) Int() int {
	v := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if v > 1<<31 {
		r.fail("integer field %d too large", v)
		return 0
	}
	return int(v)
}

// Close verifies the whole message was consumed and returns the first error.
// Trailing garbage is rejected so two honest parties can never parse the
// same bytes into different messages.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(r.buf)-r.off)
	}
	return nil
}
