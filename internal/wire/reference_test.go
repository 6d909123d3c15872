package wire

// EncodeFrame is the reference frame encoder: the wire format written out
// field by field with a Writer, allocation per frame and all. It was the
// package's original encoder and stays here as the oracle the pooled
// encoders (Arena.EncodeFrame, Arena.EncodeFrameVecs) are pinned to.
func EncodeFrame(round uint64, payloads [][]byte) []byte {
	size := 16
	for _, p := range payloads {
		size += len(p) + 4
	}
	w := NewWriter(size)
	w.Uvarint(round)
	w.Uvarint(uint64(len(payloads)))
	for _, p := range payloads {
		w.Bytes(p)
	}
	body := w.Finish()
	out := NewWriter(len(body) + 4)
	out.Uvarint(uint64(len(body)))
	out.Raw(body)
	return out.Finish()
}
