package transporttest

import (
	"bytes"

	"convexagreement/internal/transport"
)

// Recycled is a transport.Net that enforces the payload-lifetime rule
// instead of trusting callers with it; see Recycle.
type Recycled struct {
	transport.Net // ID, N and T are the inner transport's own
	// lent holds the payload copies the previous Exchange handed out.
	lent [][]byte
}

// recycledByte is what a payload reads as once its lifetime has ended.
const recycledByte = 0xDB

// Recycle wraps net so that every delivered payload dies exactly when
// transport.Net says it may: Exchange hands out copies of the inner inbox,
// and the next Exchange (before it looks at out) or Close overwrites those
// copies with 0xDB. A pooled transport recycles a buffer only when the pool
// happens to hand it out again; this does it on every round, so a caller
// that keeps or forwards a payload past the call that ends its lifetime
// computes on, relays, or returns 0xDB bytes — every time, on any
// transport.
func Recycle(net transport.Net) *Recycled { return &Recycled{Net: net} }

// Exchange ends the lifetime of the previous round's payloads, then runs
// the round on the inner transport and lends out copies of its inbox.
func (r *Recycled) Exchange(out []transport.Packet) ([]transport.Message, error) {
	r.Close()
	in, err := r.Net.Exchange(out)
	if err != nil {
		return nil, err
	}
	msgs := make([]transport.Message, len(in))
	for i, m := range in {
		msgs[i] = transport.Message{From: m.From, Payload: bytes.Clone(m.Payload)}
		r.lent = append(r.lent, msgs[i].Payload)
	}
	return msgs, nil
}

// Close ends the lifetime of the last round's payloads. The inner
// transport is the caller's to close.
func (r *Recycled) Close() {
	for _, p := range r.lent {
		for i := range p {
			p[i] = recycledByte
		}
	}
	r.lent = r.lent[:0]
}
