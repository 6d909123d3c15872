package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
)

// This file is the stream-framing layer shared by the TCP transport and its
// fuzz targets: one frame carries all payloads a party sends one peer in one
// synchronous round. Keeping the codec here (rather than inside tcpnet)
// makes it independently fuzzable and keeps the panic-free/fail-closed
// discipline of the message codec above it.
//
// Wire format:
//
//	uvarint  body length
//	body:
//	  uvarint  round number
//	  uvarint  payload count
//	  repeated length-prefixed payloads
//
// A frame that violates any structural bound (body over maxFrame, absurd
// payload count, trailing garbage, overlong varint) yields an error wrapping
// ErrFrame, which transports use to distinguish a *misbehaving* peer (demote
// to silent) from a *broken* connection (reconnect): I/O errors from the
// underlying reader are returned unwrapped.

// ErrFrame reports a structurally invalid frame — a protocol violation by
// the sender, as opposed to a transport-level I/O failure.
var ErrFrame = errors.New("wire: malformed frame")

// MaxFramePayloads bounds the per-frame payload count so a hostile count
// field cannot force a giant slice allocation.
const MaxFramePayloads = 1 << 20

// ReadFrame reads one frame from r, copying every payload: the reference
// decoder the fuzz targets hold Arena.ReadFrameIntoGated equal to, with no
// production caller. maxFrame bounds the body size; a larger announced size
// fails with ErrFrame before any allocation. I/O errors are returned as-is.
func ReadFrame(r io.Reader, maxFrame uint64) (round uint64, payloads [][]byte, err error) {
	return ReadFrameGated(r, maxFrame, nil)
}

// ReadFrameGated is ReadFrame with an admission gate consulted between the
// announced length field and the body allocation: a frame the gate refuses
// costs the reader nothing but the length varint. The structural maxFrame
// bound is checked first (an absurd length is a protocol violation, not a
// budget question); gate errors — *AdmissionError wrapping ErrAdmission —
// pass through unwrapped so transports can demote with the gate's reason.
// A nil gate admits everything.
func ReadFrameGated(r io.Reader, maxFrame uint64, gate Gate) (round uint64, payloads [][]byte, err error) {
	size, err := ReadUvarint(r)
	if err != nil {
		return 0, nil, err
	}
	if size > maxFrame {
		return 0, nil, fmt.Errorf("%w: frame of %d bytes exceeds limit %d", ErrFrame, size, maxFrame)
	}
	if gate != nil {
		if err := gate.AdmitFrame(size); err != nil {
			return 0, nil, err
		}
	}
	body := make([]byte, size)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, err
	}
	rd := NewReader(body)
	round = rd.Uvarint()
	count := rd.Int()
	if rd.Err() != nil || count > MaxFramePayloads {
		return 0, nil, fmt.Errorf("%w: bad header", ErrFrame)
	}
	payloads = make([][]byte, 0, count)
	for i := 0; i < count; i++ {
		payloads = append(payloads, bytes.Clone(rd.Bytes()))
	}
	if err := rd.Close(); err != nil {
		return 0, nil, fmt.Errorf("%w: %v", ErrFrame, err)
	}
	return round, payloads, nil
}

// ReadUvarint reads a varint byte-by-byte from a stream. An overlong
// encoding is a protocol violation (ErrFrame); I/O errors pass through.
func ReadUvarint(r io.Reader) (uint64, error) {
	var v uint64
	var shift uint
	var buf [1]byte
	for i := 0; i < 10; i++ {
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return 0, err
		}
		b := buf[0]
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, nil
		}
		shift += 7
	}
	return 0, fmt.Errorf("%w: overlong varint", ErrFrame)
}

// readUvarintByte is ReadUvarint over an io.ByteReader. Semantics are
// byte-for-byte identical (same 10-byte cap, same silent truncation of
// overflowing high bits, same error classification); the point is purely
// mechanical: reading through the io.Reader interface forces the 1-byte
// scratch to escape — one heap allocation and, on an unbuffered net.Conn,
// one read(2) syscall per varint byte. The borrowing decode path
// (Arena.ReadFrameIntoGated) reads every frame's length through here, from
// the buffered stream it requires.
func readUvarintByte(br io.ByteReader) (uint64, error) {
	var v uint64
	var shift uint
	for i := 0; i < 10; i++ {
		b, err := br.ReadByte()
		if err != nil {
			return 0, err
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, nil
		}
		shift += 7
	}
	return 0, fmt.Errorf("%w: overlong varint", ErrFrame)
}
