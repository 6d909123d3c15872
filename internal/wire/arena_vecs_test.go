package wire

import (
	"bytes"
	"testing"
)

// vecCases are scatter-gather payload sets: each payload is split into
// pieces whose concatenation must encode identically to the flat form.
var vecCases = [][][][]byte{
	nil,
	{nil},           // one empty payload, zero pieces
	{{[]byte{}}},    // one empty payload, one empty piece
	{{[]byte("a")}}, // single piece
	{{[]byte("hel"), []byte("lo")}, {[]byte("wor"), nil, []byte("ld")}},
	{{bytes.Repeat([]byte{0xab}, 150), bytes.Repeat([]byte{0xcd}, 150)}},
	{{[]byte{1}}, {nil, []byte{}, nil}, {bytes.Repeat([]byte{2}, 600)}},
}

func flattenCase(payloads [][][]byte) [][]byte {
	flat := make([][]byte, len(payloads))
	for i, v := range payloads {
		flat[i] = bytes.Join(v, nil)
	}
	return flat
}

// TestEncodeFrameVecsMatchesReference pins EncodeFrameVecs byte-identical
// to the reference EncodeFrame over the flattened payloads: a receiver
// cannot tell which encoder the sender used.
func TestEncodeFrameVecsMatchesReference(t *testing.T) {
	var a Arena
	for _, payloads := range vecCases {
		want := EncodeFrame(42, flattenCase(payloads))

		f := a.EncodeFrameVecs(42, payloads)
		if !bytes.Equal(f.Bytes(), want) {
			t.Fatalf("EncodeFrameVecs mismatch for %v:\n  got  %x\n  want %x", payloads, f.Bytes(), want)
		}
		f.Release()
	}
}
