package transporttest

import (
	"bytes"

	"convexagreement/internal/transport"
)

// Recycled is a transport.Net that enforces the inbox-lifetime rule
// instead of trusting callers with it; see Recycle.
type Recycled struct {
	transport.Net // ID, N and T are the inner transport's own
	// lent is the inbox — slice and payload copies — the previous Exchange
	// handed out.
	lent []transport.Message
}

// recycledByte is what a payload reads as once its lifetime has ended.
const recycledByte = 0xDB

// Recycle wraps net so that every delivered inbox dies exactly when
// transport.Net says it may: Exchange hands out a copy of the inner inbox,
// and the next Exchange (before it looks at out) or Close overwrites that
// copy — every payload byte with 0xDB, every message header with
// {From: -1, Payload: nil}. A pooled transport recycles a buffer only when
// the pool happens to hand it out again, and refills its inbox slice only
// when the next round delivers; this does both on every round, so a caller
// that keeps or forwards a payload, or keeps the slice, past the call that
// ends its lifetime computes on, relays, or returns garbage — every time,
// on any transport.
func Recycle(net transport.Net) *Recycled { return &Recycled{Net: net} }

// Exchange ends the lifetime of the previous round's inbox, then runs the
// round on the inner transport and lends out a copy of its inbox.
func (r *Recycled) Exchange(out []transport.Packet) ([]transport.Message, error) {
	r.Close()
	in, err := r.Net.Exchange(out)
	if err != nil {
		return nil, err
	}
	r.lent = make([]transport.Message, len(in))
	for i, m := range in {
		r.lent[i] = transport.Message{From: m.From, Payload: bytes.Clone(m.Payload)}
	}
	return r.lent, nil
}

// Close ends the lifetime of the last round's inbox. The inner transport
// is the caller's to close.
func (r *Recycled) Close() {
	for i, m := range r.lent {
		for k := range m.Payload {
			m.Payload[k] = recycledByte
		}
		r.lent[i] = transport.Message{From: -1}
	}
	r.lent = nil
}
