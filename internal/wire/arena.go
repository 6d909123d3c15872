package wire

// This file is the pooled frame-buffer arena behind the zero-copy wire
// path (DESIGN.md §2.9). The reference decoder in frame.go allocates a
// fresh body per frame and a fresh slice per payload; at n ≥ 256 a
// transport reading that way spends more time in the allocator than in the
// kernel. The arena removes both allocations from the steady state:
//
//   - Encode side: Arena.EncodeFrameVecs (scatter-gather payloads, the
//     transport's one encoder) and Arena.EncodeFrame (flat payloads, for
//     the bench probes and tests) lay the frame down in one pooled buffer
//     (exact-size, so the buffer never grows out of its size class): each
//     payload byte is copied exactly once, into the buffer the transport
//     both writes and retains for rejoin replay.
//   - Decode side: Arena.ReadFrameIntoGated reads the frame body into a
//     pooled buffer and returns payload slices that alias it. One buffer
//     per frame, zero per payload.
//
// Ownership contract (machine-checked by calint's bufownership analyzer):
//
//   - A Frame returned by an Arena method is owned by the caller until
//     Release. Payload slices returned alongside a Frame
//     (ReadFrameIntoGated) alias pooled memory: they are valid until the
//     Frame is released and must not be retained past that point. Callers
//     that need a payload beyond the frame's lifetime must copy it out
//     first.
//   - Release returns the buffer to its arena for reuse by any goroutine;
//     releasing a frame twice, or touching its bytes after Release, is a
//     bug of the same severity as a use-after-free (the race detector
//     sees concurrent reuse; TestFrameAliasAfterRelease pins the
//     single-thread aliasing behavior).
//   - The copying ReadFrame remains the reference decoder (and the test
//     suite's EncodeFrame the reference encoder): FuzzReadFrameInto holds
//     the two decoders byte-identical on every input, so the borrowing
//     path can never drift from the fail-closed semantics of the oracle.

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"sync"
)

// arenaMinClass is the smallest pooled buffer (256 B): below protocol
// payload sizes, above the slack where pooling would just shuffle tiny
// slices. arenaClasses spans 256 B .. 64 MiB (= maxFrame), one power of
// two per class.
const (
	arenaMinShift = 8
	arenaMaxShift = 26
	arenaClasses  = arenaMaxShift - arenaMinShift + 1
)

// arenaClassBytes bounds the released buffers one size class keeps for
// reuse (2 MiB); every class keeps at least two frames, so a frame of even
// the largest classes is handed to the next request rather than the GC.
const arenaClassBytes = 2 << 20

// Arena is an allocator of Frame buffers in power-of-two size classes, each
// with a bounded free list of released frames. The lists are the arena's
// own, not a sync.Pool's: a GC does not empty them, so a steady state that
// releases what it takes allocates nothing however often the collector
// runs. A frame released beyond its class's bound goes to the GC. The zero
// value is ready to use; an Arena may be shared by any number of
// goroutines. Frames do not remember which goroutine got them — Release
// from a different goroutine than Get is fine (that is the transport's
// normal send/read split).
type Arena struct {
	free [arenaClasses]freeList
}

// freeList is one size class's released frames, most recent last.
type freeList struct {
	mu     sync.Mutex
	frames []*Frame
}

// classKeep is how many released frames class keeps: arenaClassBytes of
// buffers, and at least two.
func classKeep(class int) int {
	return max(2, arenaClassBytes>>(class+arenaMinShift))
}

// Frame is one pooled buffer holding an encoded frame (or a decoded frame
// body). Bytes is valid until Release; see the package ownership contract
// above.
type Frame struct {
	arena    *Arena
	class    int
	released bool
	buf      []byte
}

// Bytes returns the frame's encoded bytes. The slice aliases pooled
// memory: it is invalidated by Release.
func (f *Frame) Bytes() []byte { return f.buf }

// Len returns the frame's encoded length in bytes.
func (f *Frame) Len() int { return len(f.buf) }

// Release returns the frame's buffer to its arena for reuse. It must be
// called exactly once; a second Release panics rather than silently
// corrupting whichever frame has since been handed the same buffer. The
// Frame header is kept together with its buffer, so a steady-state
// get→Release cycle allocates nothing.
func (f *Frame) Release() {
	if f.released {
		panic("wire: Frame released twice")
	}
	f.released = true
	if f.arena == nil {
		f.buf = nil // oversize frame, plain allocation: let the GC have it
		return
	}
	l := &f.arena.free[f.class]
	l.mu.Lock()
	if len(l.frames) < classKeep(f.class) {
		l.frames = append(l.frames, f)
	}
	l.mu.Unlock()
}

// frame returns a Frame with a buffer of length n. The buffer contents
// are unspecified (callers overwrite them).
func (a *Arena) frame(n int) *Frame {
	class := sizeClass(n)
	if class < 0 {
		// Beyond the largest class (oversize byzantine-adjacent frames):
		// plain allocation, Release drops it.
		return &Frame{arena: nil, class: -1, buf: make([]byte, n)}
	}
	l := &a.free[class]
	l.mu.Lock()
	if k := len(l.frames); k > 0 {
		f := l.frames[k-1]
		l.frames[k-1] = nil
		l.frames = l.frames[:k-1]
		l.mu.Unlock()
		f.released = false
		f.buf = f.buf[:n]
		return f
	}
	l.mu.Unlock()
	return &Frame{arena: a, class: class, buf: make([]byte, n, 1<<(class+arenaMinShift))}
}

// sizeClass maps a byte count to its class index, or -1 when n exceeds the
// largest class.
func sizeClass(n int) int {
	if n <= 1<<arenaMinShift {
		return 0
	}
	class := bits.Len(uint(n-1)) - arenaMinShift
	if class >= arenaClasses {
		return -1
	}
	return class
}

// Buffer returns a pooled frame with an n-byte buffer for the caller to
// fill. The transport's rejoin replay path uses it to coalesce a gap of
// already-encoded tail frames into one contiguous write without leaving
// the pooled-memory regime.
func (a *Arena) Buffer(n int) *Frame { return a.frame(n) }

// uvarintLen returns the encoded size of v.
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// frameBodyLen returns the exact encoded body size of a frame.
func frameBodyLen(round uint64, payloads [][]byte) int {
	n := uvarintLen(round) + uvarintLen(uint64(len(payloads)))
	for _, p := range payloads {
		n += uvarintLen(uint64(len(p))) + len(p)
	}
	return n
}

// EncodeFrame serializes one round frame, length prefix included, into a
// pooled buffer that ships with one write
// (TestArenaEncodeMatchesReference pins the bytes to the Writer-built
// reference encoder). It has no production caller: tcpnet encodes every
// round with EncodeFrameVecs, and EncodeFrame serves the bench probes and
// the tests that stand in for a peer.
func (a *Arena) EncodeFrame(round uint64, payloads [][]byte) *Frame {
	body := frameBodyLen(round, payloads)
	f := a.frame(uvarintLen(uint64(body)) + body)
	b := f.buf[:0]
	b = binary.AppendUvarint(b, uint64(body))
	b = binary.AppendUvarint(b, round)
	b = binary.AppendUvarint(b, uint64(len(payloads)))
	for _, p := range payloads {
		b = binary.AppendUvarint(b, uint64(len(p)))
		b = append(b, p...)
	}
	f.buf = b
	return f
}

// vecLen returns the flattened length of a scatter-gather payload.
func vecLen(vec [][]byte) int {
	n := 0
	for _, p := range vec {
		n += len(p)
	}
	return n
}

// frameBodyLenVecs is frameBodyLen for scatter-gather payloads: each
// payload's encoded length is that of its concatenated pieces.
func frameBodyLenVecs(round uint64, payloads [][][]byte) int {
	n := uvarintLen(round) + uvarintLen(uint64(len(payloads)))
	for _, v := range payloads {
		l := vecLen(v)
		n += uvarintLen(uint64(l)) + l
	}
	return n
}

// EncodeFrameVecs is EncodeFrame for scatter-gather payloads: the pieces
// of each payload are flattened into the pooled buffer, so the output is
// byte-identical to EncodeFrame over the concatenated payloads
// (TestEncodeFrameVecsMatchesReference pins this): the one copy a
// multiplexed payload pays on its way to the socket and the rejoin tail.
func (a *Arena) EncodeFrameVecs(round uint64, payloads [][][]byte) *Frame {
	body := frameBodyLenVecs(round, payloads)
	f := a.frame(uvarintLen(uint64(body)) + body)
	b := f.buf[:0]
	b = binary.AppendUvarint(b, uint64(body))
	b = binary.AppendUvarint(b, round)
	b = binary.AppendUvarint(b, uint64(len(payloads)))
	for _, v := range payloads {
		b = binary.AppendUvarint(b, uint64(vecLen(v)))
		for _, p := range v {
			b = append(b, p...)
		}
	}
	f.buf = b
	return f
}

// ReadFrameIntoGated reads one frame from r into a pooled buffer and
// returns payload slices that alias it — the one read between the socket
// and the protocol. r is a buffered stream (tcpnet's bufio.Reader, a
// bytes.Reader): its varints are read a byte at a time through ReadByte,
// which costs neither an allocation nor a syscall per byte. scratch, when
// non-nil, is reused for the payload slice headers (pass the previous
// call's payloads to make the steady state allocation-free). The caller owns the returned frame and must Release it
// once the payloads are no longer needed; on error the frame has already
// been released and the returned *Frame is nil.
//
// gate is consulted between the announced length field and the pooled-
// buffer allocation: a frame it refuses costs the reader nothing but the
// length varint. The structural maxFrame bound is checked first (an absurd
// length is a protocol violation, not a budget question). A nil gate
// admits everything.
//
// Error discipline is identical to ReadFrameGated: structural violations
// wrap ErrFrame, gate errors and I/O errors pass through unwrapped.
func (a *Arena) ReadFrameIntoGated(r interface {
	io.Reader
	io.ByteReader
}, maxFrame uint64, scratch [][]byte, gate Gate) (round uint64, payloads [][]byte, f *Frame, err error) {
	size, err := readUvarintByte(r)
	if err != nil {
		return 0, nil, nil, err
	}
	if size > maxFrame {
		return 0, nil, nil, fmt.Errorf("%w: frame of %d bytes exceeds limit %d", ErrFrame, size, maxFrame)
	}
	if gate != nil {
		if err := gate.AdmitFrame(size); err != nil {
			return 0, nil, nil, err
		}
	}
	f = a.frame(int(size))
	if _, err := io.ReadFull(r, f.buf); err != nil {
		f.Release()
		return 0, nil, nil, err
	}
	rd := Reader{buf: f.buf}
	round = rd.Uvarint()
	count := rd.Int()
	if rd.Err() != nil || count > MaxFramePayloads {
		f.Release()
		return 0, nil, nil, fmt.Errorf("%w: bad header", ErrFrame)
	}
	payloads = scratch[:0]
	for i := 0; i < count; i++ {
		payloads = append(payloads, rd.Bytes())
	}
	if err := rd.Close(); err != nil {
		f.Release()
		return 0, nil, nil, fmt.Errorf("%w: %v", ErrFrame, err)
	}
	return round, payloads, f, nil
}
